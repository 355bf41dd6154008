"""Command-line front end.

Subcommands::

    gmbayes validate     --config model.config
    gmbayes estimate     --config model.config --y "1.0, 2.0"  (or --y @vector.txt)
    gmbayes sweep        --config model.config --out sweep.csv [--svg sweep.svg]
                         [--trials N] [--seed N] [--estimators mmse,lmmse] [--workers N]
    gmbayes oracle-check --config model.config [--grid-points N]

Exit codes: 0 success, 1 validation failure (bad config or option, failed
check), 2 runtime failure (I/O, internal error).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .bounds import genie_lower_bound, lmmse_upper_bound
from .config import ConfigError, RunConfig, load_config, packaged_config
from .estimators import LmmseEstimator, PrecomputedEstimator
from .mixture import ValidationError
from .model import snr, snr_db
from .montecarlo import run_sweep
from .quadrature import QuadratureSpec, quad_mse, quad_posterior_mean, support_grid
from .svg import write_sweep_svg
from .sweepio import write_sweep_csv

__all__ = ["main"]

_ORACLE_TOL = 1e-6
_ORACLE_BOUND_SLACK = 1e-8
_ORACLE_POINTS = 101
_ORACLE_SPAN = 6.0


def _fmt_vector(values) -> str:
    return "[" + ", ".join(f"{v:.12g}" for v in np.asarray(values).ravel()) + "]"


def _parse_y(text: str) -> np.ndarray:
    """Parse an inline observation vector, or read one from ``@file``."""
    if text.startswith("@"):
        text = Path(text[1:]).read_text()
    parts = [p for p in text.replace(",", " ").split() if p]
    if not parts:
        raise ValidationError("empty observation vector")
    try:
        return np.array([float(p) for p in parts])
    except ValueError as exc:
        raise ValidationError(f"bad observation vector: {exc}") from exc


def _parse_estimators(text: str) -> tuple[str, ...]:
    if text.strip() in ("", "none"):
        return ()
    return tuple(part.strip() for part in text.split(","))


def cmd_validate(args, run: RunConfig) -> int:
    model = run.model
    print(f"config: {args.config}")
    print(f"signal dimension d = {model.signal_dim}")
    print(f"observation dimension m = {model.observation_dim}")
    print(f"signal components |K| = {len(model.x_prior)}")
    print(f"noise components |L| = {len(model.noise)}")
    print(f"signal mean = {_fmt_vector(model.x_prior.mean())}")
    print(f"signal second moment E||x||^2 = {model.x_prior.second_moment_trace():.12g}")
    print(f"noise mean = {_fmt_vector(model.noise.mean())}")
    print(f"noise second moment E||n||^2 = {model.noise.second_moment_trace():.12g}")
    print(f"prior SNR = {snr_db(model):.6f} dB (linear {snr(model):.12g})")
    if run.sweep is not None:
        grid = run.sweep.snr_db_grid
        print(
            f"sweep: {len(grid)} points from {grid[0]:g} to {grid[-1]:g} dB, "
            f"trials={run.sweep.trials}, seed={run.sweep.seed}, "
            f"estimators={','.join(run.sweep.estimators) or 'none'}"
        )
    print("valid")
    return 0


def cmd_estimate(args, run: RunConfig) -> int:
    pre = PrecomputedEstimator(run.model)
    y = _parse_y(args.y)
    posterior = pre.posterior(y)
    alpha = posterior.responsibilities
    trace = np.trace(posterior.covariance())  # before any output: it may raise
    print(f"y = {_fmt_vector(y)}")
    print(f"xhat = {_fmt_vector(posterior.mean())}")
    print("responsibilities alpha(k,l), row-major in (k, l):")
    for k in range(alpha.shape[0]):
        row = " ".join(f"{alpha[k, l]:.12f}" for l in range(alpha.shape[1]))
        print(f"  k={k}: {row}")
    print(f"alpha total = {alpha.sum():.12f}")
    print(f"Tr(C_x|y) = {trace:.12g}")
    return 0


def cmd_sweep(args, run: RunConfig) -> int:
    estimators = _parse_estimators(args.estimators) if args.estimators is not None else None
    config = run.sweep_config(trials=args.trials, seed=args.seed, estimators=estimators)
    points = run_sweep(config, workers=args.workers)
    write_sweep_csv(config, points, args.out)
    print(f"wrote {len(points)} points to {args.out}")
    if args.svg is not None:
        write_sweep_svg(points, args.svg)
        print(f"wrote chart to {args.svg}")
    failed = [p for p in points if p.error is not None]
    for point in failed:
        print(f"point at {point.snr_db:g} dB failed: {point.error}", file=sys.stderr)
    return 1 if failed else 0


def cmd_oracle_check(args, run: RunConfig) -> int:
    model = run.model
    spec = QuadratureSpec(grid_points=args.grid_points)
    pre = PrecomputedEstimator(model)
    y_values = support_grid(pre.obs, _ORACLE_SPAN, _ORACLE_POINTS)
    # the quadrature runs first: it is what rejects a model that is not 1-D
    reference = quad_posterior_mean(model, y_values, spec)
    analytic = pre.estimate(y_values[:, None])[:, 0]
    deviation = float(np.max(np.abs(analytic - reference)))
    mse = quad_mse(model, spec)
    lower = genie_lower_bound(pre)
    upper = lmmse_upper_bound(LmmseEstimator(model))
    print(f"oracle check on {y_values.size} observation values")
    print(f"max |analytic - quadrature posterior mean| = {deviation:.6g}")
    print(f"quad_mse = {mse:.12g}; genie lower = {lower:.12g}; lmmse upper = {upper:.12g}")
    ok = deviation <= _ORACLE_TOL
    bounds_ok = lower - _ORACLE_BOUND_SLACK <= mse <= upper + _ORACLE_BOUND_SLACK
    if not bounds_ok:
        print("quad_mse escapes [lower, upper]")
    if ok and bounds_ok:
        print(f"PASS (tolerance {_ORACLE_TOL:g})")
        return 0
    print(f"FAIL (tolerance {_ORACLE_TOL:g})")
    return 1


class _Parser(argparse.ArgumentParser):
    """Prints the usage of a malformed command line, then raises :class:`ValidationError`."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gmbayes",
        description="MMSE estimation and MSE bounds for Gaussian-mixture Bayesian linear models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse a config and report the model")
    p.add_argument("--config", required=True, help="path to a .config file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("estimate", help="single-shot MMSE estimate for one observation")
    p.add_argument("--config", required=True, help="path to a .config file")
    p.add_argument("--y", required=True,
                   help="observation vector, inline ('1.0, 2.0') or '@file'")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("sweep", help="run the SNR sweep and write CSV (and optional SVG)")
    p.add_argument("--config", required=True, help="path to a .config file")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--svg", help="optional output SVG chart path")
    p.add_argument("--trials", type=int, help="override sweep.trials")
    p.add_argument("--seed", type=int, help="override sweep.seed")
    p.add_argument("--estimators",
                   help="override sweep.estimators (comma list; '' or 'none' for bounds only)")
    p.add_argument("--workers", type=int, default=1,
                   help="parallel sweep points (output is identical to serial)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("oracle-check",
                       help="compare the analytic estimator against the 1-D quadrature oracle")
    p.add_argument("--config", required=True, help="path to a 1-D .config file")
    p.add_argument("--grid-points", type=int, default=QuadratureSpec.grid_points,
                   help="quadrature grid size (odd, >= 1001)")
    p.set_defaults(func=cmd_oracle_check)

    return parser


def _resolve_config(value: str) -> Path:
    """Accept a filesystem path or the bare name of a packaged config."""
    path = Path(value)
    if path.is_file():
        return path
    try:
        return packaged_config(value)
    except FileNotFoundError:
        raise ValidationError(f"config file not found: {value}") from None


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        args.config = _resolve_config(args.config)
        # Results that overflow a double are validation errors, checked where
        # they arise; numpy's warnings on the way there are noise here.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args, load_config(args.config))
    except (ConfigError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary maps bugs to exit 2
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
