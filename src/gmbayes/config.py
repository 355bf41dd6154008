"""Config-file schema and parsing for the command-line front end.

One canonical format: a JSON document with a ``model`` section and an
optional ``sweep`` section.

::

    {
      "model": {
        "H": [[1.0, 0.0], [0.0, 1.0]],
        "x":     [{"weight": 0.5, "mean": [1.0, 0.0], "covariance": [[1.0, 0.0], [0.0, 1.0]]}, ...],
        "noise": [{"weight": 1.0, "mean": [0.0, 0.0], "covariance": [[1.0, 0.0], [0.0, 1.0]]}]
      },
      "sweep": {
        "snr_db_start": -10, "snr_db_stop": 50, "snr_db_step": 1,
        "trials": 50000, "seed": 20250825,
        "estimators": ["mmse", "lmmse"]
      }
    }

Every parse error names the offending field by its path (for example
``model.x[2].weight``); JSON syntax errors carry line/column context.
"""

from __future__ import annotations

import dataclasses
import json
import math
from importlib import resources
from pathlib import Path

import numpy as np

from .mixture import GaussianMixture, ValidationError
from .model import BayesianLinearModel
from .montecarlo import SweepConfig, _estimator_name, _sweep_integer

__all__ = [
    "ConfigError",
    "RunConfig",
    "parse_config",
    "load_config",
    "packaged_config",
]

_GRID_ALIGN_RTOL = 1e-6
_MAX_GRID_POINTS = 1_000_000


class ConfigError(ValueError):
    """A config file failed to parse or validate; ``path`` names the field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Parsed configuration: the model plus the optional sweep."""

    model: BayesianLinearModel
    sweep: SweepConfig | None

    def sweep_config(
        self,
        trials: int | None = None,
        seed: int | None = None,
        estimators: tuple[str, ...] | None = None,
    ) -> SweepConfig:
        """The file's :class:`SweepConfig` with command-line overrides applied."""
        if self.sweep is None:
            raise ConfigError("sweep", "missing section (required for sweeps)")
        overrides = {"trials": trials, "seed": seed, "estimators": estimators}
        try:
            return dataclasses.replace(
                self.sweep, **{k: v for k, v in overrides.items() if v is not None}
            )
        except ValidationError as exc:
            raise ConfigError("sweep", str(exc)) from exc


def _mapping(value, path: str, allowed: tuple[str, ...]) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(path, f"expected an object, got {type(value).__name__}")
    for key in value:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}" if path else key,
                              f"unknown key (allowed: {', '.join(allowed)})")
    return value


def _require(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise ConfigError(path, f"missing required key {key!r}")
    return mapping[key]


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {type(value).__name__}")
    if not math.isfinite(value):
        raise ConfigError(path, f"must be finite, got {value}")
    return float(value)


def _vector(value, path: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ConfigError(path, "expected a non-empty list of numbers")
    return np.array([_number(v, f"{path}[{i}]") for i, v in enumerate(value)])


def _matrix(value, path: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ConfigError(path, "expected a non-empty list of rows")
    rows = [_vector(row, f"{path}[{i}]") for i, row in enumerate(value)]
    width = rows[0].size
    for i, row in enumerate(rows):
        if row.size != width:
            raise ConfigError(f"{path}[{i}]", f"row length {row.size} != {width}")
    return np.vstack(rows)


def _mixture(value, path: str) -> GaussianMixture:
    if not isinstance(value, list) or not value:
        raise ConfigError(path, "expected a non-empty list of components")
    weights, means, covariances = [], [], []
    for i, item in enumerate(value):
        comp_path = f"{path}[{i}]"
        comp = _mapping(item, comp_path, ("weight", "mean", "covariance"))
        weights.append(_number(_require(comp, "weight", comp_path), f"{comp_path}.weight"))
        means.append(_vector(_require(comp, "mean", comp_path), f"{comp_path}.mean"))
        covariances.append(
            _matrix(_require(comp, "covariance", comp_path), f"{comp_path}.covariance")
        )
    try:
        return GaussianMixture.from_parameters(weights, means, covariances)
    except ValidationError as exc:
        raise ConfigError(path, str(exc)) from exc


def _model(value, path: str) -> BayesianLinearModel:
    section = _mapping(value, path, ("H", "x", "noise"))
    h = _matrix(_require(section, "H", path), f"{path}.H")
    x_prior = _mixture(_require(section, "x", path), f"{path}.x")
    noise = _mixture(_require(section, "noise", path), f"{path}.noise")
    try:
        return BayesianLinearModel(h, x_prior, noise)
    except ValidationError as exc:
        raise ConfigError(path, str(exc)) from exc


def _grid(section: dict, path: str) -> tuple[float, ...]:
    start = _number(_require(section, "snr_db_start", path), f"{path}.snr_db_start")
    stop = _number(_require(section, "snr_db_stop", path), f"{path}.snr_db_stop")
    step = _number(_require(section, "snr_db_step", path), f"{path}.snr_db_step")
    if step <= 0:
        raise ConfigError(f"{path}.snr_db_step", f"must be positive, got {step}")
    if stop < start:
        raise ConfigError(f"{path}.snr_db_stop", f"{stop} is below snr_db_start {start}")
    steps = (stop - start) / step
    if not math.isfinite(steps):
        raise ConfigError(f"{path}.snr_db_step", f"{step} is too fine to count the points of [{start}, {stop}]")
    count = int(round(steps)) + 1
    if count > _MAX_GRID_POINTS:
        raise ConfigError(f"{path}.snr_db_step", f"gives {count} grid points, more than {_MAX_GRID_POINTS}")
    if abs(start + (count - 1) * step - stop) > _GRID_ALIGN_RTOL * step:
        raise ConfigError(f"{path}.snr_db_step", "does not evenly divide [start, stop]")
    return tuple(start + i * step for i in range(count))


def _sweep(value, path: str, model: BayesianLinearModel) -> SweepConfig:
    section = _mapping(
        value,
        path,
        ("snr_db_start", "snr_db_stop", "snr_db_step", "trials", "seed", "estimators"),
    )
    options = {}
    for name in ("trials", "seed"):
        try:
            options[name] = _sweep_integer(name, _require(section, name, path))
        except ValidationError as exc:
            raise ConfigError(f"{path}.{name}", str(exc)) from exc
    if "estimators" in section:
        raw_estimators = section["estimators"]
        if not isinstance(raw_estimators, list):
            raise ConfigError(f"{path}.estimators", "expected a list of estimator names")
        for i, name in enumerate(raw_estimators):
            try:
                _estimator_name(name)
            except ValidationError as exc:
                raise ConfigError(f"{path}.estimators[{i}]", str(exc)) from exc
        options["estimators"] = tuple(raw_estimators)
    return SweepConfig(model=model, snr_db_grid=_grid(section, path), **options)


def parse_config(text: str) -> RunConfig:
    """Parse a config document from a JSON string."""
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("", f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    top = _mapping(document, "", ("model", "sweep"))
    model = _model(_require(top, "model", "model"), "model")
    sweep = _sweep(top["sweep"], "sweep", model) if "sweep" in top else None
    return RunConfig(model=model, sweep=sweep)


def load_config(path) -> RunConfig:
    """Parse a config file from disk."""
    return parse_config(Path(path).read_text())


def packaged_config(name: str) -> Path:
    """Filesystem path of a reference config shipped with the package.

    ``name`` is the bare file name, e.g. ``"figure1.config"`` or
    ``"oracle1d.config"``.
    """
    candidate = resources.files(__package__).joinpath("configs", name)
    with resources.as_file(candidate) as real:
        if not real.is_file():
            raise FileNotFoundError(f"no packaged config named {name!r}")
        return Path(real)
