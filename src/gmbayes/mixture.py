"""Finite Gaussian mixture distributions.

A mixture is one stacked representation: arrays of component weights
``(K,)``, means ``(K, d)``, covariances ``(K, d, d)`` and their lower
Cholesky factors ``(K, d, d)``, validated once, by the constructor. This
module provides that construction, first and second moments, log-density
evaluation in the log domain, reproducible sampling, and the transform
toolkit (affine maps, independent joins, marginals, characteristic
functions) that the estimator modules build on. Every transform is a few
array operations on the stacked arrays followed by the one validating
constructor.

Numerical conventions:

* Every component covariance must be symmetric positive definite; the lower
  Cholesky factors are computed once at construction (one batched
  factorization) and reused everywhere. There is no automatic jitter: a
  non-PD covariance is a hard error that names the component.
* Densities are only ever evaluated in the log domain, so component
  likelihoods that underflow a double do not poison mixtures. All components
  are evaluated together: deviations from the means are whitened with the
  stacked inverse Cholesky factors (inverses of the triangular factors, never
  of the covariances) and combined with a peak-shifted log-sum-exp.
* Every log-domain normalisation shifts by its column's always-finite peak
  (:func:`_peak`). A lane a double cannot hold (below ``log(tiny)``, ``tiny``
  the smallest normal double; ``-inf``; or ``nan`` from an overflow) is
  exactly 0, zeroed before the ``exp`` and never evaluated: ``exp`` is up to
  a hundred times slower on inputs whose result is subnormal. A column of
  nothing but such lanes has zero density.
* Every call that takes points, ``log_density`` included, reads them by
  one rule (:func:`_as_batch`): one point ``(d,)`` (a scalar when ``d`` is
  1) or a batch ``(n, d)``, so a 1-D mixture's batch is ``(n, 1)``.
* Weights must sum to 1 within ``WEIGHT_SUM_TOL`` and are renormalized
  exactly once, at user-facing construction. Transform operations carry
  already-normalized weights through verbatim so that round-trips such as
  marginalizing an independent join are bit-exact.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence

import numpy as np
from scipy.linalg import solve_triangular

__all__ = [
    "ValidationError",
    "GaussianMixture",
    "affine_transform",
    "independent_join",
    "marginal",
    "WEIGHT_SUM_TOL",
    "SYMMETRY_RTOL",
]

# Tolerance for |sum(weights) - 1| at construction.
WEIGHT_SUM_TOL = 1e-9
# Max allowed asymmetry of a covariance, relative to its largest entry.
SYMMETRY_RTOL = 1e-12

LOG_2PI = math.log(2.0 * math.pi)

# Exponents below this give exactly 0 (see _exp_flushed). It rounds so that
# exp(_LOG_TINY) is 2.7e-14 (relative) above tiny, more than the few-ulp
# distance of a softmax column sum from 1, so normalising the responsibilities
# leaves no surviving one subnormal.
_LOG_TINY = math.log(np.finfo(float).tiny)
_LOWEST = -np.finfo(float).max  # the floor of every _peak

# Rows per block of every loop over Monte Carlo draws (see _row_blocks).
_BLOCK_ROWS = 4096


class ValidationError(ValueError):
    """An invariant of a mixture, a model, or an input does not hold."""


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class GaussianMixture:
    """A finite Gaussian mixture, held as stacked, read-only component arrays.

    ``weights`` has shape ``(K,)``, ``means`` ``(K, d)`` and ``covariances``
    ``(K, d, d)``. Zero weights are allowed: such components stay in every
    formula but are never sampled. The weights may also form a ``(K, L)``
    grid, with means and covariances to match; the components are then
    stored flat in row-major order and errors name them ``component (k,l)``.

    The constructor is the one place that validates a mixture. It rejects
    shape mismatches, non-finite entries, negative weights, a weight sum off
    1 by more than ``WEIGHT_SUM_TOL``, asymmetry beyond ``SYMMETRY_RTOL``
    relative to a covariance's largest entry, and covariances whose Cholesky
    factorization fails, naming the first offending component. With
    ``renormalize`` (user-facing construction) the weights are divided by
    their sum once; transforms pass ``False`` so weights flow through
    bit-exactly. Instances are immutable and safe for concurrent reads.
    """

    __slots__ = ("dim", "weights", "log_weights", "means", "covariances", "chols",
                 "_inv_chols", "_log_norms")

    def __init__(self, weights, means, covariances, *, renormalize: bool = True):
        weights = np.array(weights, dtype=float)
        means = np.array(means, dtype=float)
        covariances = np.array(covariances, dtype=float)
        grid = weights.shape
        if weights.ndim not in (1, 2) or weights.size == 0:
            raise ValidationError("mixture must have at least one component")
        if means.shape[:-1] != grid or means.shape[-1:] == (0,):
            raise ValidationError(f"means shape {means.shape} does not match weights shape {grid}")
        d = means.shape[-1]
        if covariances.shape != grid + (d, d):
            raise ValidationError(f"covariance shape {covariances.shape} does not match dimension {d}")
        weights = weights.reshape(-1)
        means = means.reshape(-1, d)
        covariances = covariances.reshape(-1, d, d)

        _reject(~np.isfinite(weights), grid, lambda i: f"weight {weights[i]} is not finite")
        _reject(~np.isfinite(means).all(axis=1), grid, lambda i: "mean has non-finite entries")
        _reject(~np.isfinite(covariances).all(axis=(1, 2)), grid,
                lambda i: "covariance has non-finite entries")
        _reject(weights < 0.0, grid, lambda i: f"weight {weights[i]} is negative")
        total = math.fsum(weights)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValidationError(f"weights sum {total:.10g}, must equal 1 within {WEIGHT_SUM_TOL:g}")
        if renormalize and total != 1.0:
            weights = weights / total
        scale = np.abs(covariances).max(axis=(1, 2))
        asym = np.abs(covariances - np.swapaxes(covariances, 1, 2)).max(axis=(1, 2))
        _reject(asym > SYMMETRY_RTOL * np.maximum(scale, 1.0), grid,
                lambda i: f"covariance not symmetric (max asymmetry {asym[i]:.3e})")
        try:
            chols = np.linalg.cholesky(covariances)
        except np.linalg.LinAlgError:
            _reject([not _positive_definite(c) for c in covariances], grid,
                    lambda i: "covariance not positive definite")
            raise

        self.dim = d
        self.weights = _frozen(weights)
        with np.errstate(divide="ignore"):
            self.log_weights = _frozen(np.log(weights))
        self.means = _frozen(means)
        self.covariances = _frozen(covariances)
        self.chols = _frozen(chols)
        self._inv_chols = _frozen(
            solve_triangular(chols, np.broadcast_to(np.eye(d), chols.shape), lower=True)
        )
        self._log_norms = _frozen(
            -0.5 * d * LOG_2PI - np.sum(np.log(np.diagonal(chols, axis1=1, axis2=2)), axis=1)
        )

    @classmethod
    def from_parameters(
        cls,
        weights: Sequence[float],
        means: Sequence,
        covariances: Sequence,
    ) -> "GaussianMixture":
        """Build a mixture from parallel lists of weights, means, covariances."""
        if not (len(weights) == len(means) == len(covariances)):
            raise ValidationError(
                f"parameter lists disagree: {len(weights)} weights, "
                f"{len(means)} means, {len(covariances)} covariances"
            )
        means = [np.atleast_1d(np.asarray(m, dtype=float)) for m in means]
        covariances = [np.atleast_2d(np.asarray(c, dtype=float)) for c in covariances]
        for what, arrays in (("mean", means), ("covariance", covariances)):
            _reject([a.shape != arrays[0].shape for a in arrays], (len(arrays),),
                    lambda i: f"{what} dimension {arrays[i].shape} does not match component 0")
        return cls(weights, means, covariances)

    @classmethod
    def single(cls, mean, covariance) -> "GaussianMixture":
        """A one-component mixture (a plain Gaussian)."""
        return cls.from_parameters([1.0], [mean], [covariance])

    def __len__(self) -> int:
        return self.weights.shape[0]

    # -- moments ----------------------------------------------------------

    def mean(self) -> np.ndarray:
        """Mixture mean: the weight-averaged component means."""
        return self.weights @ self.means

    def covariance(self) -> np.ndarray:
        """Mixture covariance.

        Combines component covariances and second moments of the means:
        ``sum_k w_k (C_k + u_k u_k^T) - u u^T`` with ``u`` the mixture mean.
        The result is symmetrized to remove roundoff asymmetry; it is
        positive semidefinite up to roundoff.
        """
        return _mixture_covariance(self.weights, self.means, self.covariances)

    def second_moment_trace(self) -> float:
        """E||x||^2 = trace(covariance) + ||mean||^2."""
        u = self.mean()
        return float(np.trace(self.covariance()) + u @ u)

    # -- densities --------------------------------------------------------

    def component_log_pdfs(self, points) -> np.ndarray:
        """Per-component Gaussian log-densities of a ``(n, d)`` batch, shape ``(K, n)``.

        A single point ``(d,)`` (or a scalar when ``d = 1``) is a batch of one.
        Wrong shapes and non-finite entries raise :class:`ValidationError`.
        Each deviation ``x - u_k`` is whitened as ``z = L_k^-1 (x - u_k)``;
        subtracting the mean before whitening keeps far-out points accurate.
        """
        points, _ = _as_batch(points, self.dim, "point")
        return self._whitened_log_pdfs(self._deviations(points))

    def _deviations(self, points: np.ndarray) -> np.ndarray:
        """The ``(K, d, n)`` block of deviations ``x - u_k`` of a ``(n, d)`` batch."""
        # Transposed to a contiguous copy first: the subtraction then reads
        # unit-stride rows, which is faster than reading the strided view.
        points = np.ascontiguousarray(np.asarray(points, dtype=float).T)
        return points[None, :, :] - self.means[:, :, None]

    def _whitened_log_pdfs(self, dev: np.ndarray) -> np.ndarray:
        """Per-component log-densities, shape ``(K, n)``, from a :meth:`_deviations` block."""
        z = _stacked_product(self._inv_chols, dev)
        # log_norms - 0.5 |z|^2, computed in place; the same roundings as the expression.
        out = np.einsum("kin,kin->kn", z, z)
        out *= -0.5
        out += self._log_norms[:, None]
        return out

    def log_density(self, x) -> np.ndarray | float:
        """Mixture log-density via log-sum-exp over components.

        Accepts a single point of shape ``(d,)`` (a scalar when ``d`` is 1)
        or a batch ``(n, d)``, as :func:`_as_batch` reads every point-taking
        call. Wrong shapes and non-finite entries raise :class:`ValidationError`.
        The linear-domain density is never materialized, so points hundreds
        of standard deviations out still give finite values.
        """
        points, single = _as_batch(x, self.dim, "point")
        logs = self._whitened_log_pdfs(self._deviations(points))
        out = _log_sum_exp(logs + self.log_weights[:, None])
        return float(out[0]) if single else out

    def characteristic_function(self, t) -> complex:
        """``E exp(i t.x) = sum_k w_k exp(i t.u_k - t' C_k t / 2)``."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if t.shape != (self.dim,):
            raise ValidationError(f"t shape {t.shape} != ({self.dim},)")
        phase = self.means @ t
        decay = np.einsum("i,kij,j->k", t, self.covariances, t)
        return complex(np.sum(self.weights * np.exp(1j * phase - 0.5 * decay)))

    # -- sampling ---------------------------------------------------------

    def sample(self, count: int, seed: int) -> np.ndarray:
        """Draw ``count`` vectors, shape ``(count, d)``, reproducibly.

        The generator is a Philox counter-based bit generator seeded with the
        integer ``seed``. The draw is a categorical pick over the component
        weights followed by ``mean + chol @ z`` with ``z`` standard normal,
        drawn row by row after the categorical pick, so the output is a pure
        function of (seed, numpy version). The output is C-ordered for every
        number of components.

        A one-component mixture skips the pick but still advances the
        generator past the ``count`` raw 64-bit draws it would have consumed,
        so its ``z`` (and output) is the same as with the pick. It draws and
        transforms ``z`` in the row blocks of :func:`_row_blocks`. More
        components transform each component's rows of ``z`` in place, in one
        product.

        ``count`` and ``seed`` must be non-negative integers; anything else
        raises :class:`ValidationError`.
        """
        count = _integer("count", count)
        rng = np.random.Generator(np.random.Philox(_integer("seed", seed)))
        if len(self) == 1:
            rng.bit_generator.random_raw(count, output=False)  # the pick's uniforms
            out = np.empty((count, self.dim))
            for rows in _row_blocks(count):
                out[rows] = self._component_draws(0, rng.standard_normal(out[rows].shape))
            return out
        idx = rng.choice(len(self), size=count, p=self.weights)
        z = rng.standard_normal((count, self.dim))
        for k in range(len(self)):
            rows = np.flatnonzero(idx == k)
            z[rows] = self._component_draws(k, z[rows])
        return z

    def _component_draws(self, k: int, z: np.ndarray) -> np.ndarray:
        """``means[k] + z @ chols[k].T`` for ``(n, d)`` standard normals, formed
        as the transposed product ``(L_k z^T)^T`` plus an in-place shift, which
        is faster for long ``n``; the result is Fortran-ordered. Tests check
        that it equals the direct expression bit for bit."""
        out = (self.chols[k] @ z.T).T
        out += self.means[k]
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GaussianMixture(dim={self.dim}, components={len(self)})"


def _row_blocks(count: int) -> list[slice]:
    """Slices of ``_BLOCK_ROWS`` rows that cover ``range(count)`` in order.

    numpy rounds a one-row product differently, so a lone last row joins the
    block before it: no block has one row unless ``count`` is 1.
    """
    # a block starts only where two rows or more remain, or at the row of count 1
    starts = list(range(0, count - 1 if count > 1 else count, _BLOCK_ROWS))
    return [slice(start, stop) for start, stop in zip(starts, starts[1:] + [count])]


def _reject(bad, grid: tuple[int, ...], message) -> None:
    """Raise :class:`ValidationError` for the first component flagged in ``bad``
    (flat order), named by its index in ``grid``, with the fault ``message(i)``."""
    flagged = np.flatnonzero(bad)
    if flagged.size:
        i = int(flagged[0])
        index = ",".join(str(int(j)) for j in np.unravel_index(i, grid))
        name = index if len(grid) == 1 else f"({index})"
        raise ValidationError(f"component {name}: {message(i)}")


def _integer(name: str, value) -> int:
    """``value`` as an ``int``: an integer per :func:`operator.index`, not a bool,
    and not negative; else :class:`ValidationError` naming ``name``."""
    try:
        number = operator.index(value)
    except TypeError:
        number = None
    if number is None or isinstance(value, bool):
        raise ValidationError(f"{name} {value!r} is not an integer")
    if number < 0:
        raise ValidationError(f"{name} {number} is negative")
    return number


def _positive_definite(covariance: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(covariance)
    except np.linalg.LinAlgError:
        return False
    return True


def _as_batch(values, dim: int, what: str) -> tuple[np.ndarray, bool]:
    """``values`` as an ``(n, dim)`` batch, plus whether it was a single point.

    A single point is ``(dim,)``, or a scalar when ``dim`` is 1; a batch is
    ``(n, dim)``. Wrong shapes and non-finite entries raise
    :class:`ValidationError`, whose message names the input ``what``.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim == 0:
        values = values.reshape(1)
    if values.ndim not in (1, 2):
        raise ValidationError(f"{what} must be a vector or a batch, got shape {values.shape}")
    single = values.ndim == 1
    batch = np.atleast_2d(values)
    if batch.shape[1] != dim:
        raise ValidationError(f"{what} dimension {batch.shape[1]} != expected dimension {dim}")
    if not np.all(np.isfinite(batch)):
        raise ValidationError(f"{what} has non-finite entries")
    return batch, single


def _stacked_product(factors: np.ndarray, block: np.ndarray) -> np.ndarray:
    """``factors @ block`` for stacked ``(P, a, b)`` factors and ``(P, b, n)`` blocks.

    A ``1 x 1`` factor is a single multiplication per entry, done by
    broadcasting: numpy's batched ``matmul`` takes a slow scalar loop there.
    """
    return factors * block if factors.shape[-2:] == (1, 1) else factors @ block


def _peak(logs: np.ndarray, axis: int) -> np.ndarray:
    """Every normalisation's shift: the largest non-``nan`` entry, never below ``_LOWEST``."""
    return np.fmax.reduce(logs, axis=axis, initial=_LOWEST)


def _exp_flushed(logs: np.ndarray) -> np.ndarray:
    """``exp(logs)`` in place, with every lane a double cannot hold exactly 0.

    Such a lane is not ``>= _LOG_TINY``: below it, ``-inf``, or ``nan`` from
    an overflow in the whitening (``0 * inf`` once ``y - u`` overflows). It
    is zeroed before the ``exp`` and never evaluated: ``exp`` takes a slow
    path on inputs whose result is subnormal (100 times the cost of an
    ordinary input), and at high SNR most softmax lanes are such inputs.
    """
    flushed = ~(logs >= _LOG_TINY)
    np.putmask(logs, flushed, 0.0)
    np.exp(logs, out=logs)
    np.putmask(logs, flushed, 0.0)
    return logs


def _log_sum_exp(logs: np.ndarray) -> np.ndarray:
    """``log(sum(exp(logs), axis=0))`` for a ``(K, n)`` array.

    Shifts each column by its :func:`_peak` and adds ``log1p`` of the
    remaining terms, which keeps the result accurate when one term dominates
    (Blanchard, Higham & Higham, IMA J. Numer. Anal. 41, 2021). A lane
    :func:`_exp_flushed` zeroes (``nan`` too) is 0: a column of them is ``-inf``.

    Shifted terms below ``_LOG_TINY`` total less than ``K * tiny``. Dropping
    them moves the result only where a sum that small survives rounding: a
    column with a single term at its peak, other terms that are tiny too,
    and a peak within about ``K * 2**-914`` of 0 (plainest, a peak below
    ``2**-960`` with every other term flushed). The result then moves by at
    most one unit in its last place or ``K * 2**-1021``, whichever is larger.
    """
    peak = _peak(logs, axis=0)
    rest = _exp_flushed(logs - peak)
    # Terms at the peak are exactly 1; drop them all and add back all but one.
    at_peak = logs == peak
    rest -= at_peak
    with np.errstate(divide="ignore"):
        return peak + np.log1p(rest.sum(axis=0) + (at_peak.sum(axis=0) - 1))


def _mixture_covariance(weights: np.ndarray, means: np.ndarray, covariances: np.ndarray) -> np.ndarray:
    """:meth:`GaussianMixture.covariance` of ``(K,)`` weights, ``(K, d)`` means and
    ``(K, d, d)`` covariances; the posterior covariance shares it."""
    u = weights @ means
    second = np.einsum("k,kij->ij", weights, covariances)
    second += np.einsum("k,ki,kj->ij", weights, means, means)
    cov = second - np.outer(u, u)
    return 0.5 * (cov + cov.T)


def _mapped_moments(mixture: GaussianMixture, transform: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Component means ``D u_k`` and symmetrized covariances ``D C_k D^T``.

    The means are per-component mat-vecs, bit-identical to ``D @ u_k``; one
    GEMM over the stacked means would round differently.
    """
    means = (transform @ mixture.means[:, :, None])[:, :, 0]
    covariances = transform @ mixture.covariances @ transform.T
    return means, 0.5 * (covariances + np.swapaxes(covariances, 1, 2))


def affine_transform(mixture: GaussianMixture, transform, offset=None) -> GaussianMixture:
    """The mixture of ``D x + a`` for ``x`` distributed as ``mixture``.

    Component weights are unchanged; means map to ``D u + a`` and
    covariances to ``D C D^T`` (symmetrized against roundoff). A
    rank-deficient ``transform`` would make every result covariance
    singular (and roundoff can hide that from a Cholesky factorization),
    so it is rejected up front.
    """
    d = mixture.dim
    transform = np.atleast_2d(np.asarray(transform, dtype=float))
    if transform.shape[1] != d:
        raise ValidationError(f"transform has {transform.shape[1]} columns, mixture dimension is {d}")
    if not np.all(np.isfinite(transform)):
        raise ValidationError("transform has non-finite entries")
    m = transform.shape[0]
    rank = int(np.linalg.matrix_rank(transform))
    if rank < m:
        raise ValidationError(
            f"transform is rank deficient (rank {rank} < {m} rows); "
            "transformed covariances would be singular"
        )
    if offset is None:
        offset = np.zeros(m)
    offset = np.atleast_1d(np.asarray(offset, dtype=float))
    if offset.shape != (m,):
        raise ValidationError(f"offset shape {offset.shape} != ({m},)")
    means, covariances = _mapped_moments(mixture, transform)
    return GaussianMixture(mixture.weights, means + offset, covariances, renormalize=False)


def independent_join(first: GaussianMixture, second: GaussianMixture) -> GaussianMixture:
    """Joint mixture of two independent mixtures over the stacked vector.

    The result has ``len(first) * len(second)`` components in row-major
    order (first's index outer, second's inner): weights ``w1_k * w2_l``,
    stacked means, and block-diagonal covariances. All (k, l)-indexed
    arrays downstream share this ordering.
    """
    pairs = (len(first), len(second))
    split, d = first.dim, first.dim + second.dim
    means = np.empty(pairs + (d,))
    means[:, :, :split] = first.means[:, None]
    means[:, :, split:] = second.means[None]
    covariances = np.zeros(pairs + (d, d))
    covariances[:, :, :split, :split] = first.covariances[:, None]
    covariances[:, :, split:, split:] = second.covariances[None]
    return GaussianMixture(
        np.outer(first.weights, second.weights), means, covariances, renormalize=False
    )


def marginal(mixture: GaussianMixture, keep: slice) -> GaussianMixture:
    """Marginal over a contiguous coordinate range.

    ``keep`` must be a contiguous, nonempty ``slice`` (step 1) within the
    mixture dimension. Each component keeps its weight, the mean sub-vector,
    and the principal covariance sub-block.
    """
    if not isinstance(keep, slice):
        raise ValidationError("keep must be a slice")
    start, stop, step = keep.indices(mixture.dim)
    if step != 1:
        raise ValidationError("keep must be contiguous (step 1)")
    if (keep.start is not None and keep.start < 0) or (keep.stop is not None and keep.stop > mixture.dim):
        raise ValidationError(
            f"keep range [{keep.start}, {keep.stop}) out of bounds for dimension {mixture.dim}"
        )
    if stop <= start:
        raise ValidationError(f"keep range [{start}, {stop}) is empty")
    return GaussianMixture(
        mixture.weights,
        mixture.means[:, start:stop],
        mixture.covariances[:, start:stop, start:stop],
        renormalize=False,
    )
