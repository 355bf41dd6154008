"""Brute-force quadrature oracle for scalar (1-D signal, 1-D observation) models.

Everything here evaluates Bayes' rule directly on a dense grid, with no use
of the closed-form mixture algebra, so it can serve as an independent check
of the analytic estimator: posterior density proportional to
``prior(x) * noise_density(y - H x)``, integrated with the trapezoid rule.

The x grid spans every prior component mean by ``SPAN_SIGMAS`` = 12 component
standard deviations, which puts the truncated tail mass below 1e-30. Log
densities are shifted by their per-query peak (``mixture._peak``, as in every
log-domain normalisation) before exponentiation, so the moment ratios stay
well conditioned even when the absolute posterior scale underflows. The
three trapezoid sums (mass, first and second moment) of a block of queries
are one matrix product against the stacked trapezoid weights.

:func:`quad_mse` puts its y grid on a lattice whose spacing is an integer
multiple of ``|H| * dx``. Every residual ``y_i - H x_j`` then lies on one
1-D lattice, so the noise log-density is evaluated once per lattice node
instead of once per (y, x) pair. Each row of residuals is then an evenly
spaced run of lattice nodes, so a block of rows is a strided window onto
the lattice (``sliding_window_view``), read while adding the log prior;
no index array is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

_CHUNK_ROWS = 64
# quad_posterior_mean evaluates the noise density at every residual of a
# block, so its blocks are sized by residual count: about 64k residuals keep
# the density kernel's temporaries at a few MB whatever the grid size.
_RESIDUALS_PER_BLOCK = 1 << 16


@dataclass(frozen=True)
class QuadratureSpec:
    """Grid resolution: an odd point count of at least 1001."""

    grid_points: int = 20001

    def __post_init__(self):
        object.__setattr__(self, "grid_points", _integer("grid_points", self.grid_points))
        if self.grid_points < 1001 or self.grid_points % 2 == 0:
            raise ValidationError(
                f"grid_points {self.grid_points} must be odd and at least 1001"
            )


def _x_grid(model: BayesianLinearModel, spec: QuadratureSpec):
    """The x grid of a 1-D model, the log prior on it and its moment weights."""
    if model.signal_dim != 1 or model.observation_dim != 1:
        raise ValidationError(
            "quadrature oracle supports 1-D models only; got signal dim "
            f"{model.signal_dim}, observation dim {model.observation_dim}"
        )
    grid = support_grid(model.x_prior, SPAN_SIGMAS, spec.grid_points)
    return grid, model.x_prior.log_density(grid), _moment_weights(grid)


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


def _posterior_moments(log_w: np.ndarray, moment_weights: np.ndarray):
    """First/second posterior moments and absolute log-mass for each row of ``log_w``.

    ``log_w`` holds the unnormalized log posterior of one query per row on
    the x grid; it is a work array and is overwritten. ``log_mass`` is the log of
    the unnormalized posterior mass, the denominator of Bayes' rule before
    normalization by the y density; it is ``-inf`` for a row of ``-inf``.
    """
    shift = _peak(log_w, axis=1)
    log_w -= shift[:, None]
    mass, first, second = (np.exp(log_w, out=log_w) @ moment_weights).T
    with np.errstate(divide="ignore", invalid="ignore"):  # zero mass: moments nan, log_mass -inf
        return first / mass, second / mass, shift + np.log(mass)


def quad_posterior_mean(
    model: BayesianLinearModel,
    y,
    spec: QuadratureSpec = QuadratureSpec(),
):
    """Posterior mean E[x | y] by direct numerical integration.

    ``y`` may be a scalar or a 1-D array of observation values; the return
    matches (float or 1-D array). Raises :class:`ValidationError` when the
    posterior mass at some requested ``y`` underflows the support floor,
    i.e. the observation lies outside the grid's numerical support.
    """
    grid, log_prior, moment_weights = _x_grid(model, spec)
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    if y_arr.ndim != 1:
        raise ValidationError(f"y must be scalar or 1-D, got shape {np.shape(y)}")
    if not np.all(np.isfinite(y_arr)):
        raise ValidationError("y has non-finite entries")
    h = model.H[0, 0]
    means = np.empty_like(y_arr)
    block_rows = max(1, _RESIDUALS_PER_BLOCK // grid.size)
    for start in range(0, y_arr.size, block_rows):
        rows = slice(start, min(start + block_rows, y_arr.size))
        residual = y_arr[rows, None] - h * grid[None, :]
        log_w = model.noise.log_density(residual.reshape(-1)).reshape(residual.shape)
        log_w += log_prior
        first, _, log_mass = _posterior_moments(log_w, moment_weights)
        if np.any(log_mass < _LOG_SUPPORT_FLOOR):
            bad = y_arr[rows][log_mass < _LOG_SUPPORT_FLOOR][0]
            raise ValidationError(f"y = {bad:.6g} outside numerical support of the grid")
        means[rows] = first
    return means if np.ndim(y) else float(means[0])


def quad_mse(model: BayesianLinearModel, spec: QuadratureSpec = QuadratureSpec()) -> float:
    """Bayesian MSE of the exact posterior mean by double quadrature.

    Integrates the posterior variance against the observation density:
    ``mse = ∫ f_y(y) Var[x | y] dy``, with the inner posterior moments on an
    x grid of ``spec.grid_points`` nodes and the outer integral on a y grid
    built from the observation mixture. The observation density itself is
    evaluated exactly.

    The y grid is a residual lattice: its spacing is the smallest integer
    multiple ``s`` of ``q = |H| dx`` (``q = dx`` when ``H = 0``) that covers
    the observation mixture's ``SPAN_SIGMAS`` support with at most
    ``grid_points`` nodes. Then ``y_i - H x_j = r0 + (s i - sign(H) j) q``,
    so the noise log-density is evaluated once per node of the whole lattice
    and each block of y rows reads it as a strided window: rows step ``s``
    nodes, columns one node backwards when ``H > 0`` and forwards when
    ``H < 0``, and every column of a row is the same node when ``H = 0``.
    The window is added to the log prior straight into the block's log
    posterior, which is allocated once and reused. When the lattice would
    hold more nodes than one block has entries (``|H|`` so small that ``s``
    is large), each block evaluates the noise directly at its residuals
    instead, formed from the same node indices by broadcasting, so memory
    stays O(rows x grid) either way and no index array of that size exists.
    """
    x_grid, log_prior, moment_weights = _x_grid(model, spec)
    h = float(model.H[0, 0])
    size = x_grid.size
    dx = (x_grid[-1] - x_grid[0]) / (size - 1)
    step = abs(h) * dx if h != 0.0 else dx
    sign = int(np.sign(h))

    obs = observation_mixture(model)
    low, high = _support_interval(obs, SPAN_SIGMAS)
    stride = max(1, math.ceil((high - low) / ((size - 1) * step)))
    y_count = min(size, math.ceil((high - low) / (stride * step)) + 1)
    y_index = stride * np.arange(y_count)  # lattice index of each y node
    y_grid = low + y_index * step
    origin = low - h * x_grid[0]  # residual at lattice index 0
    density = np.exp(obs.log_density(y_grid))
    # Lattice index of residual (i, j) is y_index[i] + column[j].
    column = -sign * np.arange(size)
    column_low, column_high = int(column.min()), int(column.max())
    nodes = int(y_index[-1]) + column_high - column_low + 1
    windows = None
    if nodes <= _CHUNK_ROWS * size:
        lattice = model.noise.log_density(origin + np.arange(column_low, column_low + nodes) * step)
        # Row i of the residuals is lattice[stride i:][:size], reversed when
        # H > 0; when H = 0 it is the one node lattice[stride i], broadcast
        # against the prior.
        windows = sliding_window_view(lattice, size if sign else 1)[::stride, ::-1 if sign > 0 else 1]
    log_w = np.empty((_CHUNK_ROWS, size))

    integrand = np.empty_like(y_grid)
    for start in range(0, y_count, _CHUNK_ROWS):
        rows = slice(start, min(start + _CHUNK_ROWS, y_count))
        block = log_w[: rows.stop - start]
        if windows is not None:
            window = windows[rows]
        else:
            # Integer node indices, each rounded to float once, then the residuals.
            np.add(y_index[rows, None], column, out=block)
            block *= step
            block += origin
            window = model.noise.log_density(block.reshape(-1)).reshape(block.shape)
        np.add(window, log_prior, out=block)
        first, second, _ = _posterior_moments(block, moment_weights)
        integrand[rows] = density[rows] * (second - first**2)
    return float(np.trapezoid(integrand, y_grid))
