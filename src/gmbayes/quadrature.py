"""Brute-force quadrature oracle for scalar (1-D signal, 1-D observation) models.

Everything here evaluates Bayes' rule directly on a dense grid, with no use
of the closed-form mixture algebra, so it can serve as an independent check
of the analytic estimator: posterior density proportional to
``prior(x) * noise_density(y - H x)``, integrated with the trapezoid rule.

The x grid spans every prior component mean by ``SPAN_SIGMAS`` = 12 component
standard deviations, which puts the truncated tail mass below 1e-30. The
three trapezoid sums (mass, first and second moment) of a block of queries
are one matrix product against the stacked trapezoid weights, and the
posterior moments are their ratios, so a constant factor on a query's
weights cancels. :func:`quad_posterior_mean` factors each query's weights
by noise component: cell ``(l, j)`` is ``q_l N_l(y - H x_j) prior(x_j)``,
from the per-component noise log-densities with no log-sum-exp. It shifts
each query's cells by their peak (``mixture._peak``, as in every
log-domain normalisation) and exponentiates each cell once, so the moment
ratios stay well conditioned even when the absolute posterior scale
underflows, and it can report that absolute mass.

:func:`quad_mse` puts its y grid on a lattice whose spacing is an integer
multiple of ``|H| * dx``. Every residual ``y_i - H x_j`` then lies on one
1-D lattice, so the noise density is evaluated once per lattice node
instead of once per (y, x) pair. Each row of residuals is then an evenly
spaced run of lattice nodes, so a block of rows is a strided window onto
the lattice (``sliding_window_view``), laid out so that each row reads it
forward; no index array is built, and each block is copied into a buffer
of at most 1 MB that stays in a per-core L2 cache. Its
weights are factored: each cell is ``noise(node) * prior(x)``, and each
factor is exponentiated once, shifted by its own peak, so a row's weights
carry one constant factor, which cancels in its moments. One
floating-point test, made before any lattice exists, sends a model whose
lattice would be too large (tiny ``|H|``, or low SNR) to
:func:`quad_posterior_mean`'s per-row blocks on the plain support grid
instead, so every ``|H|`` works, down to the smallest subnormal.

Both paths form every row's posterior mean, variance and absolute
log-mass (``_posterior_rows``). ``quad_mse`` integrates the variances,
and ``oracle-check`` takes that integral and compares the analytic
estimator with the posterior means at 101 of the same rows, so one pass
serves both checks; :func:`quad_posterior_mean` stays the per-row kernel
at any y.
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


def _row_moments(model: BayesianLinearModel, y: np.ndarray, grid, log_prior, moment_weights):
    """Yield the row slice of each block of the 1-D ``y`` and its rows'
    first and second posterior moments and absolute log-mass.

    A block holds about ``_RESIDUALS_PER_BLOCK`` residuals ``y - H x``. Its
    weights are factored by noise component: cell ``(l, j)`` of a row is
    ``q_l N_l(y - H x_j) prior(x_j)``, with the per-component noise
    log-densities from the stacked kernel and no log-sum-exp. Each row is
    shifted by the :func:`_peak` of its ``L x G`` cells and every cell is
    exponentiated once; the cells are summed over components and the sums
    are one matrix product against the moment weights. ``log_mass`` is
    ``shift + log(mass)``, the log of the unnormalized posterior mass, the
    denominator of Bayes' rule before normalization by the y density; it
    is ``-inf`` for a row of no mass, whose moments are then nan.
    """
    noise = model.noise
    h_grid = model.H[0, 0] * grid
    # log q_l + log prior(x_j): each cell's terms other than its noise density.
    table = noise.log_weights[:, None, None] + log_prior[None, None, :]
    block_rows = max(1, _RESIDUALS_PER_BLOCK // grid.size)
    for start in range(0, y.size, block_rows):
        rows = slice(start, min(start + block_rows, y.size))
        residual = y[rows, None] - h_grid[None, :]
        logs = noise.component_log_pdfs(residual.reshape(-1, 1)).reshape((len(noise),) + residual.shape)
        logs += table
        shift = _peak(logs, axis=(0, 2))
        logs -= shift[:, None]
        mass, first, second = (np.exp(logs, out=logs).sum(axis=0) @ moment_weights).T
        with np.errstate(divide="ignore", invalid="ignore"):  # zero mass: moments nan, log_mass -inf
            yield rows, (first / mass, second / mass, shift + np.log(mass))


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
    means = np.empty_like(y_arr)
    for rows, (first, _, log_mass) in _row_moments(model, y_arr, grid, log_prior, moment_weights):
        _require_support(y_arr[rows], log_mass)
        means[rows] = first
    return means if np.ndim(y) else float(means[0])


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
        means. Raises :class:`ValidationError` when fewer rows lie inside
        (a y grid far coarser than the observation density), or when a
        picked row lies below the support floor, as
        :func:`quad_posterior_mean` does."""
        low, high = _support_interval(self.obs, span_sigmas)
        inside = np.flatnonzero((self.y >= low) & (self.y <= high))
        if inside.size < points:
            raise ValidationError(
                f"only {inside.size} rows of the quadrature's y grid lie within "
                f"{span_sigmas:g} sigma of the observation mixture, fewer than {points}"
            )
        picks = inside[np.arange(points) * (inside.size - 1) // (points - 1)]
        _require_support(self.y[picks], self.log_mass[picks])
        return self.y[picks], self.mean[picks]


def _posterior_rows(model: BayesianLinearModel, spec: QuadratureSpec) -> _Rows:
    """The posterior rows that :func:`quad_mse` integrates; see there for the y grid.

    On the lattice path a row's absolute log-mass is the two factors' peaks
    plus the log of its factored mass, ``-inf`` when that mass underflows
    to 0; on the per-row path it is :func:`_row_moments`'. A row of no mass
    has a ``nan`` mean and variance 0.
    """
    x_grid, log_prior, moment_weights = _x_grid(model, spec)
    h = float(model.H[0, 0])
    size = x_grid.size
    dx = (x_grid[-1] - x_grid[0]) / (size - 1)
    step = abs(h) * dx if h != 0.0 else dx
    width = size if h != 0.0 else 1  # lattice nodes in one row of residuals
    obs = observation_mixture(model)
    low, high = _support_interval(obs, SPAN_SIGMAS)

    if 0.0 < step < math.inf and high - low <= (_CHUNK_ROWS * size - width) * step:
        stride = max(1, math.ceil((high - low) / ((size - 1) * step)))
        y_count = min(size, math.ceil((high - low) / (stride * step)) + 1)
        y_grid = low + stride * np.arange(y_count) * step
        # Residual (i, j) is lattice node stride i - sign(H) j; node 0 is
        # residual (0, 0). The lattice runs from node 0 up, or from the top
        # node stride (y_count - 1) down when H > 0, so that every row reads
        # its window forward (the rows' windows are then taken in reverse);
        # when H = 0 row i is the one node noise[stride i], broadcast
        # against the prior.
        top = stride * (y_count - 1)
        reach = np.arange(top + width)
        nodes = top - reach if h > 0.0 else reach
        lattice = model.noise.log_density((low - h * x_grid[0]) + nodes[:, None] * step)
        noise_peak, prior_peak = _peak(lattice, axis=0), _peak(log_prior, axis=0)
        noise = np.exp(lattice - noise_peak)
        windows = sliding_window_view(noise, width)[::-stride if h > 0.0 else stride]
        # The prior factor of every cell, shifted by its peak, times the moment weights.
        prior_weights = np.exp(log_prior - prior_peak)[:, None] * moment_weights
        mean, variance, log_mass = np.empty((3, y_count))
        block_rows = min(_CHUNK_ROWS, _BLOCK_CELLS // size)
        noise_block = np.empty((block_rows, size))
        for start in range(0, y_count, block_rows):
            rows = slice(start, min(start + block_rows, y_count))
            block = noise_block[: rows.stop - start]
            np.copyto(block, windows[rows])
            mass, first, second = (block @ prior_weights).T
            with np.errstate(divide="ignore", invalid="ignore"):  # zero mass: mean nan, log-mass -inf
                mean[rows] = first / mass
                variance[rows] = np.where(mass > 0.0, second / mass - mean[rows] ** 2, 0.0)
                log_mass[rows] = np.log(mass)
        log_mass += noise_peak + prior_peak
    else:
        y_grid = support_grid(obs, SPAN_SIGMAS, size)
        mean, second, log_mass = np.empty((3, size))
        for rows, moments in _row_moments(model, y_grid, x_grid, log_prior, moment_weights):
            mean[rows], second[rows], log_mass[rows] = moments
        variance = np.where(log_mass > -np.inf, second - mean**2, 0.0)
    return _Rows(obs, y_grid, mean, variance, log_mass)


def quad_mse(model: BayesianLinearModel, spec: QuadratureSpec = QuadratureSpec()) -> float:
    """Bayesian MSE of the exact posterior mean by double quadrature.

    Integrates the posterior variance against the observation density:
    ``mse = ∫ f_y(y) Var[x | y] dy``, with the inner posterior moments on an
    x grid of ``spec.grid_points`` nodes and the outer integral on a y grid
    built from the observation mixture. The observation density itself is
    evaluated exactly.

    On the lattice path the y grid is a residual lattice: its spacing is the
    smallest integer multiple ``s`` of ``q = |H| dx`` (``q = dx`` when
    ``H = 0``) that covers the observation mixture's ``SPAN_SIGMAS`` support
    with at most ``grid_points`` nodes. Then ``y_i - H x_j = r0 + (s i - sign(H) j) q``,
    so the noise density is evaluated once per node of the whole lattice
    and each block of y rows reads it as a strided window: rows step ``s``
    nodes, and every column of a row is the same node when ``H = 0``. The
    lattice runs from its top node down when ``H > 0``, so the columns of
    a row read it forward, one node a column, whatever the sign of ``H``.

    The posterior weights are factored. The noise lattice is exponentiated
    once, as ``exp(lattice - peak)``, and the prior once, as one ``(G, 3)``
    matrix ``exp(log_prior - peak) * moment weights``. Each block is then
    one copy of its window into a reused ``(rows, G)`` buffer, with
    ``rows = min(_CHUNK_ROWS, _BLOCK_CELLS // G)`` so that it stays in L2
    cache, and one matrix product against that matrix. A row's weights
    are its exact posterior times one constant, the row's observation
    density over the exponentials of the two peaks, which cancels in the
    moment ratios. A row whose factored mass underflows to exactly 0
    contributes 0: where
    the grid resolves the noise density, its observation density is then
    below the last bit of the integral. The variance is
    ``E[x^2|y] - E[x|y]^2`` from raw moments, so it loses about
    ``eps * E[x^2|y] / Var[x|y]`` relative to cancellation.

    One floating-point test picks the path before any lattice exists: the
    lattice iff the support spans at most ``_CHUNK_ROWS * G - w`` steps
    ``q``, with ``w`` the nodes of one row (``G``, or 1 when ``H = 0``).
    Otherwise (tiny ``|H|``, low SNR, or ``q`` underflowing to 0)
    :func:`quad_posterior_mean`'s per-row blocks, with their weights
    factored by noise component, run on the plain ``G``-point
    :func:`support_grid` of the observation mixture and form no lattice
    index, so any ``|H|`` works, down to the smallest subnormal.
    """
    return _posterior_rows(model, spec).mse()
