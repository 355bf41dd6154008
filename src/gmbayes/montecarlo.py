"""Empirical MSE estimation and the SNR sweep harness.

Each sweep point calibrates the scalar noise scale to the requested SNR and
builds its MMSE and LMMSE estimators once. The empirical MSE of each
requested estimator averages its squared errors over freshly drawn (signal,
noise) pairs, and the analytic bounds read the same two estimators: the
genie lower bound the MMSE one, the LMMSE upper bound the LMMSE one.
A point fails, with its reason, where the noise scale for its SNR is not
usable or where either bound is not positive: both bounds are differences
that rounding takes to zero or below at extreme SNR, and the point then
spends no Monte Carlo work.

Reproducibility contract:

* Per-point seeds derive from ``(sweep seed, point index)`` through a fixed
  published hash (:func:`derive_seed`), so points are independent of one
  another and of execution order.
* Within a point, the same draws are reused for every estimator (paired
  sampling; the MMSE/LMMSE comparison then has no sampling noise between
  arms). The signal and the noise are drawn once; the point then runs in
  blocks of ``_BATCH`` (4096) rows, each forming its observations, running
  every estimator and squaring their errors while its arrays are in cache.
  No block has a single row: numpy's products round a one-row operand
  differently, so where the trial count would leave one, the last block
  starts a row earlier. The results do not depend on the block size.
* Squared errors are reduced by an exact sum: the correctly rounded value of
  the exact real sum, equal to ``math.fsum`` bit for bit. Bucketing the terms
  by binary exponent makes it independent of term order and block size, so
  worker count never changes the result: parallel and serial sweeps agree
  bit for bit.
"""

from __future__ import annotations

import hashlib
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .bounds import genie_lower_bound, lmmse_upper_bound
from .estimators import LmmseEstimator, PrecomputedEstimator
from .mixture import ValidationError, _integer
from .model import BayesianLinearModel, calibrate_noise_scale

__all__ = [
    "ESTIMATOR_NAMES",
    "SweepConfig",
    "SweepPoint",
    "derive_seed",
    "estimate_mse",
    "run_sweep",
]

_ARMS = {"mmse": PrecomputedEstimator, "lmmse": LmmseEstimator}
ESTIMATOR_NAMES = tuple(_ARMS)

_BATCH = 4096

# _exact_sum splits each term into a high half (sign, exponent and the top
# 27 significand bits) and a low half (the other 26 bits). Per binary
# exponent, every high half is a multiple of one power of two u and below
# 2**27 u in magnitude, and every low half a multiple of u / 2**26 and below
# 2**26 (u / 2**26), subnormals (bucket 0) included; so a float64 bucket
# total stays exact (below 2**53 of its unit) for up to 2**26 terms. Longer
# arrays are summed in chunks.
_EXACT_CHUNK = 1 << 26
_HIGH_MASK = ~((1 << 26) - 1)
# Terms at or above 2**960 (biased exponent 1983) could overflow a bucket.
_EXP_LIMIT = 1023 + 960


def derive_seed(seed: int, *parts) -> int:
    """Derive a 64-bit child seed from a root seed and labels.

    SHA-256 of ``"gmbayes-seed" ":" seed (":" part)*`` with each part
    rendered by ``str``; the first 8 digest bytes, little-endian. Fixed for
    the life of the file format so recorded sweeps stay reproducible.
    """
    h = hashlib.sha256()
    h.update(b"gmbayes-seed")
    for part in (seed, *parts):
        h.update(b":")
        h.update(str(part).encode())
    return int.from_bytes(h.digest()[:8], "little")


def _squared_errors(model: BayesianLinearModel, trials: int, seed: int, arms) -> list[np.ndarray]:
    """Squared errors ``|x - xhat(y)|^2``, shape ``(trials,)``, of each estimator
    in ``arms`` over the same ``trials`` paired draws.

    The signal and the noise are drawn once, at full length. Each block of
    ``_BATCH`` rows then forms its observations ``y = x H^T + n`` and runs
    every arm on them, so a block's arrays stay in cache and no full-length
    ``y`` is built.
    """
    x = model.x_prior.sample(trials, derive_seed(seed, "x"))
    noise = model.noise.sample(trials, derive_seed(seed, "noise"))
    errors = [np.empty(trials) for _ in arms]
    for start in range(0, trials, _BATCH):
        # numpy's products round a one-row operand differently, so a last block
        # of one row starts a row earlier, recomputing the block before's last row
        rows = slice(min(start, trials - 2), start + _BATCH)
        x_rows = x[rows]
        y = x_rows @ model.H.T
        y += noise[rows]
        for arm, err in zip(arms, errors):
            dev = x_rows - arm.estimate(y)
            np.einsum("ij,ij->i", dev, dev, out=err[rows])
    return errors


def _sweep_integer(name: str, value) -> int:
    """``value`` as an ``int`` under the one sweep rule for ``name``: a
    non-negative integer (:func:`gmbayes.mixture._integer`), ``trials`` at
    least 2, as a standard error needs two trials, and ``workers`` at least 1."""
    number = _integer(name, value)
    least = {"trials": 2, "workers": 1}.get(name, 0)
    if number < least:
        raise ValidationError(f"{name} {number} < {least}; {name} must be at least {least}")
    return number


def _estimator_name(name) -> str:
    """``name`` if it is one of :data:`ESTIMATOR_NAMES`, else :class:`ValidationError`."""
    if name not in ESTIMATOR_NAMES:
        raise ValidationError(f"unknown estimator {name!r}; expected one of {ESTIMATOR_NAMES}")
    return name


def _exact_sum(values: np.ndarray) -> float:
    """``math.fsum(values.tolist())`` for a contiguous 1-D float64 array,
    without the list.

    :func:`np.bincount` sums the high and the low halves of the terms per
    biased exponent, exactly (see ``_EXACT_CHUNK``), and ``math.fsum`` then
    rounds the exact sum of the nonzero bucket totals once. The result is
    therefore independent of term order. Non-finite terms and terms at or
    above ``2**960`` in magnitude take ``math.fsum`` directly.
    """
    totals: list[float] = []
    for start in range(0, values.size, _EXACT_CHUNK):
        chunk = values[start:start + _EXACT_CHUNK]
        bits = chunk.view(np.int64)
        exps = bits >> 52 & 0x7FF
        if exps.max() >= _EXP_LIMIT:
            return math.fsum(values.tolist())
        high = (bits & _HIGH_MASK).view(np.float64)
        for half in (high, chunk - high):  # the low half is exact (Sterbenz)
            total = np.bincount(exps, weights=half)
            totals.extend(total[total != 0].tolist())
    return math.fsum(totals)


def _mean_stderr(errors: np.ndarray) -> tuple[float, float]:
    n = errors.size
    mean = _exact_sum(errors) / n
    dev = errors - mean
    var = _exact_sum(dev * dev) / (n - 1)
    return mean, math.sqrt(var / n)


def estimate_mse(
    model: BayesianLinearModel,
    trials: int,
    seed: int,
    estimator: str = "mmse",
) -> tuple[float, float]:
    """Empirical Bayesian MSE of one estimator and its standard error.

    Draws ``trials`` independent (signal, noise) pairs, forms observations,
    and averages the squared estimation errors. Deterministic given
    ``seed``; a sweep point with the same effective seed reproduces these
    numbers exactly.
    """
    trials = _sweep_integer("trials", trials)
    seed = _sweep_integer("seed", seed)
    arm = _ARMS[_estimator_name(estimator)](model)
    return _mean_stderr(_squared_errors(model, trials, seed, [arm])[0])


@dataclass(frozen=True)
class SweepConfig:
    """One SNR sweep: model, dB grid, trial count, seed, estimator set."""

    model: BayesianLinearModel
    snr_db_grid: tuple[float, ...]
    trials: int
    seed: int
    estimators: tuple[str, ...] = ESTIMATOR_NAMES

    def __post_init__(self):
        grid = tuple(float(v) for v in self.snr_db_grid)
        if not grid:
            raise ValidationError("SNR grid is empty")
        if not all(math.isfinite(v) for v in grid):
            raise ValidationError("SNR grid has non-finite entries")
        object.__setattr__(self, "trials", _sweep_integer("trials", self.trials))
        object.__setattr__(self, "seed", _sweep_integer("seed", self.seed))
        names = [_estimator_name(name) for name in self.estimators]
        # canonical order, duplicates dropped
        object.__setattr__(self, "estimators", tuple(n for n in ESTIMATOR_NAMES if n in names))
        object.__setattr__(self, "snr_db_grid", grid)


@dataclass(frozen=True)
class SweepPoint:
    """Result record for one SNR grid point (linear-scale MSE values).

    ``error`` is set (and the bound and estimator fields are None) when the
    point failed; the sweep itself continues.
    """

    snr_db: float
    noise_scale: float
    lower: float | None = None
    upper: float | None = None
    mse_mmse: float | None = None
    stderr_mmse: float | None = None
    mse_lmmse: float | None = None
    stderr_lmmse: float | None = None
    error: str | None = field(default=None)


def _run_point(config: SweepConfig, index: int) -> SweepPoint:
    snr_db = config.snr_db_grid[index]
    scale = math.nan
    try:
        scaled, scale = calibrate_noise_scale(config.model, snr_db)
        arms = {name: make(scaled) for name, make in _ARMS.items()}
        lower, upper = genie_lower_bound(arms["mmse"]), lmmse_upper_bound(arms["lmmse"])
        if not (lower > 0.0 and upper > 0.0):
            raise ValidationError(
                f"MSE bounds lost to rounding: genie lower {lower:.6g}, "
                f"lmmse upper {upper:.6g}; both must be positive"
            )
        values: dict[str, tuple[float, float]] = {}
        if config.estimators:
            seed_point = derive_seed(config.seed, "point", index)
            chosen = [arms[name] for name in config.estimators]
            errors = _squared_errors(scaled, config.trials, seed_point, chosen)
            values = dict(zip(config.estimators, map(_mean_stderr, errors)))
        mmse = values.get("mmse", (None, None))
        lmmse = values.get("lmmse", (None, None))
        return SweepPoint(
            snr_db=snr_db,
            noise_scale=scale,
            lower=lower,
            upper=upper,
            mse_mmse=mmse[0],
            stderr_mmse=mmse[1],
            mse_lmmse=lmmse[0],
            stderr_lmmse=lmmse[1],
        )
    except (ValidationError, np.linalg.LinAlgError) as exc:
        return SweepPoint(snr_db=snr_db, noise_scale=scale, error=str(exc))


def run_sweep(config: SweepConfig, workers: int = 1) -> list[SweepPoint]:
    """Run the sweep, one point per grid entry, in grid order.

    ``workers`` (a positive integer) points run concurrently; per-point seeds
    make the output identical to the serial run.
    """
    workers = _sweep_integer("workers", workers)
    indices = range(len(config.snr_db_grid))
    if workers == 1:
        return [_run_point(config, i) for i in indices]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda i: _run_point(config, i), indices))
