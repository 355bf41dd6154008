"""Finite Gaussian mixture distributions.

A mixture is an ordered list of weighted Gaussian components. This module
provides construction with eager invariant checking, first and second
moments, log-density evaluation in the log domain, reproducible sampling,
and the transform toolkit (affine maps, independent joins, marginals,
characteristic functions) that the estimator modules build on.

Numerical conventions:

* Every component covariance must be symmetric positive definite; its lower
  Cholesky factor is computed once at construction and reused everywhere.
  There is no automatic jitter: a non-PD covariance is a hard error.
* Densities are only ever evaluated in the log domain, so component
  likelihoods that underflow a double do not poison mixtures. All components
  are evaluated together: deviations from the means are whitened with the
  stacked inverse Cholesky factors (inverses of the triangular factors, never
  of the covariances) and combined with a max-shifted log-sum-exp.
* Weights must sum to 1 within ``WEIGHT_SUM_TOL`` and are renormalized
  exactly once, at user-facing construction. Transform operations carry
  already-normalized weights through verbatim so that round-trips such as
  marginalizing an independent join are bit-exact.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np
from scipy.linalg import block_diag, solve_triangular

__all__ = [
    "ValidationError",
    "GaussianComponent",
    "GaussianMixture",
    "validate",
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


class ValidationError(ValueError):
    """An invariant of a component, mixture, or model does not hold."""


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class GaussianComponent:
    """One weighted Gaussian component ``(weight, mean, covariance)``.

    Parameters
    ----------
    weight : float
        Nonnegative component probability. Zero weights are allowed; such
        components stay in all formulas but are never sampled.
    mean : array_like, shape (d,)
        Component mean. Scalars are promoted to dimension 1.
    covariance : array_like, shape (d, d)
        Symmetric positive definite component covariance. Scalars are
        promoted to a 1x1 matrix.

    Raises
    ------
    ValidationError
        On non-finite entries, shape mismatch, negative weight, asymmetry
        beyond ``SYMMETRY_RTOL`` relative to the largest entry, or a
        covariance whose Cholesky factorization fails.

    Notes
    -----
    Instances are immutable: the stored arrays are marked read-only and the
    lower Cholesky factor is computed eagerly and cached as ``chol``.
    """

    __slots__ = ("weight", "mean", "covariance", "chol")

    def __init__(self, weight: float, mean, covariance, *, _label: str = "component"):
        weight = float(weight)
        mean = np.atleast_1d(np.asarray(mean, dtype=float))
        covariance = np.atleast_2d(np.asarray(covariance, dtype=float))

        if not math.isfinite(weight):
            raise ValidationError(f"{_label}: weight {weight} is not finite")
        if weight < 0.0:
            raise ValidationError(f"{_label}: weight {weight} is negative")
        if mean.ndim != 1 or mean.size < 1:
            raise ValidationError(f"{_label}: mean must be a 1-D vector")
        if not np.all(np.isfinite(mean)):
            raise ValidationError(f"{_label}: mean has non-finite entries")
        d = mean.shape[0]
        if covariance.shape != (d, d):
            raise ValidationError(
                f"{_label}: covariance shape {covariance.shape} does not match dimension {d}"
            )
        if not np.all(np.isfinite(covariance)):
            raise ValidationError(f"{_label}: covariance has non-finite entries")

        scale = np.abs(covariance).max()
        asym = np.abs(covariance - covariance.T).max()
        if asym > SYMMETRY_RTOL * max(scale, 1.0):
            raise ValidationError(
                f"{_label}: covariance not symmetric (max asymmetry {asym:.3e})"
            )
        try:
            chol = np.linalg.cholesky(covariance)
        except np.linalg.LinAlgError:
            raise ValidationError(f"{_label}: covariance not positive definite") from None

        self.weight = weight
        self.mean = _frozen(mean)
        self.covariance = _frozen(covariance)
        self.chol = _frozen(chol)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GaussianComponent(weight={self.weight!r}, mean={self.mean!r}, "
            f"covariance={self.covariance!r})"
        )


class GaussianMixture:
    """A finite Gaussian mixture: nonempty ordered components of equal dimension.

    Parameters
    ----------
    components : iterable of GaussianComponent
        The components, kept in the given order.
    renormalize : bool, keyword only
        When true (the default, for user-facing construction) the weight sum
        is checked against 1 within ``WEIGHT_SUM_TOL`` and the weights are
        then divided by their sum once. Transform operations that already
        carry normalized weights pass ``False`` so weights flow through
        bit-exactly.

    Notes
    -----
    Instances are immutable after construction and safe for unrestricted
    concurrent reads. Stacked views of the weights, means, covariances, and
    Cholesky factors are exposed for vectorized consumers.
    """

    __slots__ = (
        "components", "dim", "weights", "log_weights", "means", "covariances", "chols",
        "_inv_chols", "_log_norms",
    )

    def __init__(self, components: Iterable[GaussianComponent], *, renormalize: bool = True):
        components = tuple(components)
        if not components:
            raise ValidationError("mixture must have at least one component")
        for i, comp in enumerate(components):
            if not isinstance(comp, GaussianComponent):
                raise ValidationError(f"component {i}: not a GaussianComponent")
        d = components[0].dim
        for i, comp in enumerate(components):
            if comp.dim != d:
                raise ValidationError(
                    f"component {i}: dimension {comp.dim} does not match component 0 ({d})"
                )

        total = math.fsum(comp.weight for comp in components)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValidationError(
                f"weights sum {total:.10g}, must equal 1 within {WEIGHT_SUM_TOL:g}"
            )
        if renormalize and total != 1.0:
            components = tuple(
                GaussianComponent(c.weight / total, c.mean, c.covariance, _label=f"component {i}")
                for i, c in enumerate(components)
            )

        self.components = components
        self.dim = d
        self.weights = _frozen(np.array([c.weight for c in components]))
        with np.errstate(divide="ignore"):
            self.log_weights = _frozen(np.log(self.weights))
        self.means = _frozen(np.stack([c.mean for c in components]))
        self.covariances = _frozen(np.stack([c.covariance for c in components]))
        self.chols = _frozen(np.stack([c.chol for c in components]))
        eye = np.eye(d)
        self._inv_chols = _frozen(
            np.stack([solve_triangular(c.chol, eye, lower=True) for c in components])
        )
        self._log_norms = _frozen(
            -0.5 * d * LOG_2PI
            - np.sum(np.log(np.diagonal(self.chols, axis1=1, axis2=2)), axis=1)
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
        return cls(
            GaussianComponent(w, m, c, _label=f"component {i}")
            for i, (w, m, c) in enumerate(zip(weights, means, covariances))
        )

    @classmethod
    def single(cls, mean, covariance) -> "GaussianMixture":
        """A one-component mixture (a plain Gaussian)."""
        return cls([GaussianComponent(1.0, mean, covariance)])

    def __len__(self) -> int:
        return len(self.components)

    def __iter__(self):
        return iter(self.components)

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
        u = self.mean()
        second = np.einsum("k,kij->ij", self.weights, self.covariances)
        second += np.einsum("k,ki,kj->ij", self.weights, self.means, self.means)
        cov = second - np.outer(u, u)
        return 0.5 * (cov + cov.T)

    def second_moment_trace(self) -> float:
        """E||x||^2 = trace(covariance) + ||mean||^2."""
        u = self.mean()
        return float(np.trace(self.covariance()) + u @ u)

    # -- densities --------------------------------------------------------

    def component_log_pdfs(self, points: np.ndarray) -> np.ndarray:
        """Per-component Gaussian log-densities of a ``(n, d)`` batch, shape ``(K, n)``.

        Each deviation ``x - u_k`` is whitened as ``z = L_k^-1 (x - u_k)``;
        subtracting the mean before whitening keeps far-out points accurate.
        """
        dev = np.asarray(points, dtype=float).T[None, :, :] - self.means[:, :, None]
        z = self._inv_chols @ dev
        return self._log_norms[:, None] - 0.5 * np.einsum("kin,kin->kn", z, z)

    def log_density(self, x) -> np.ndarray | float:
        """Mixture log-density via log-sum-exp over components.

        Accepts a single point of shape ``(d,)`` or a batch ``(n, d)``; for
        1-D mixtures a scalar or a ``(n,)`` batch of scalars also works.
        Wrong shapes and non-finite entries raise :class:`ValidationError`.
        The linear-domain density is never materialized, so points hundreds
        of standard deviations out still give finite values.
        """
        x = np.asarray(x, dtype=float)
        if self.dim == 1 and x.ndim == 1 and x.shape[0] != 1:
            x = x[:, None]  # a batch of scalars
        points, single = _as_batch(x, self.dim, "point")
        out = _log_sum_exp(self.component_log_pdfs(points) + self.log_weights[:, None])
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

    def sample(self, count: int, seed) -> np.ndarray:
        """Draw ``count`` vectors, shape ``(count, d)``, reproducibly.

        The generator is a Philox counter-based bit generator seeded with
        ``seed`` (an int or ``numpy.random.SeedSequence``). The draw is a
        categorical pick over the component weights followed by
        ``mean + chol @ z`` with ``z`` standard normal; all standard-normal
        variates are drawn in one block after the categorical pick, so the
        output is a pure function of (seed, numpy version).
        """
        if count < 0:
            raise ValidationError(f"count {count} is negative")
        rng = np.random.Generator(np.random.Philox(seed))
        out = np.empty((count, self.dim))
        if count == 0:
            return out
        idx = rng.choice(len(self.components), size=count, p=self.weights)
        z = rng.standard_normal((count, self.dim))
        for k, comp in enumerate(self.components):
            rows = idx == k
            if np.any(rows):
                out[rows] = comp.mean + z[rows] @ comp.chol.T
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GaussianMixture(dim={self.dim}, components={len(self.components)})"


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


def _log_sum_exp(logs: np.ndarray) -> np.ndarray:
    """``log(sum(exp(logs), axis=0))`` for a ``(K, n)`` array.

    Shifts each column by its maximum and adds ``log1p`` of the remaining
    terms, which keeps the result accurate when one term dominates
    (Blanchard, Higham & Higham, IMA J. Numer. Anal. 41, 2021). Columns
    that are entirely ``-inf`` give ``-inf``.
    """
    peak = np.max(logs, axis=0)
    rest = np.exp(logs - np.where(np.isfinite(peak), peak, 0.0))
    # Terms at the peak are exactly 1; drop them all and add back all but one.
    at_peak = logs == peak
    rest -= at_peak
    with np.errstate(divide="ignore"):
        return peak + np.log1p(np.sum(rest, axis=0) + (np.count_nonzero(at_peak, axis=0) - 1))


def validate(mixture: GaussianMixture) -> None:
    """Re-check every invariant of an existing mixture.

    Construction already enforces the invariants; this re-runs the checks
    (for instance after unpickling) and raises ``ValidationError`` naming
    the first violation.
    """
    GaussianMixture(
        (
            GaussianComponent(c.weight, c.mean, c.covariance, _label=f"component {i}")
            for i, c in enumerate(mixture.components)
        ),
        renormalize=False,
    )


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

    def build():
        for i, c in enumerate(mixture.components):
            cov = transform @ c.covariance @ transform.T
            cov = 0.5 * (cov + cov.T)
            yield GaussianComponent(
                c.weight, transform @ c.mean + offset, cov, _label=f"component {i}"
            )

    return GaussianMixture(build(), renormalize=False)


def independent_join(first: GaussianMixture, second: GaussianMixture) -> GaussianMixture:
    """Joint mixture of two independent mixtures over the stacked vector.

    The result has ``len(first) * len(second)`` components in row-major
    order (first's index outer, second's inner): weights ``w1_k * w2_l``,
    stacked means, and block-diagonal covariances. All (k, l)-indexed
    arrays downstream share this ordering.
    """
    comps = []
    for k, a in enumerate(first.components):
        for l, b in enumerate(second.components):
            comps.append(
                GaussianComponent(
                    a.weight * b.weight,
                    np.concatenate([a.mean, b.mean]),
                    block_diag(a.covariance, b.covariance),
                    _label=f"component ({k},{l})",
                )
            )
    return GaussianMixture(comps, renormalize=False)


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
        (
            GaussianComponent(
                c.weight, c.mean[start:stop], c.covariance[start:stop, start:stop],
                _label=f"component {i}",
            )
            for i, c in enumerate(mixture.components)
        ),
        renormalize=False,
    )
