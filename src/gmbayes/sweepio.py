"""Sweep result serialization: the CSV format and its parser.

Column contract (header is bit-exact)::

    snr_db,noise_scale,mse_mmse_db,stderr_mmse,mse_lmmse_db,stderr_lmmse,lower_db,upper_db

MSE and bound columns are in dB, ``10*log10`` of the linear value with a
unit reference; standard-error columns stay linear (a dB standard error is
ill-defined where the estimate crosses a bound). Values print with 17
significant digits so parsing recovers them exactly. Lines starting with
``#`` are comments: run metadata at the top, and one comment per failed
sweep point, whose row keeps only ``snr_db`` and ``noise_scale``. Metadata
never includes timestamps or worker counts, so reruns of the same sweep
are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .mixture import ValidationError
from .montecarlo import SweepConfig, SweepPoint

__all__ = [
    "SWEEP_CSV_HEADER",
    "CsvRow",
    "to_db",
    "render_sweep_csv",
    "write_sweep_csv",
    "read_sweep_csv",
]


def to_db(value: float | None) -> float | None:
    """Linear power value to dB (unit reference); ``None`` passes through."""
    if value is None:
        return None
    if value == 0.0:
        return -math.inf
    return 10.0 * math.log10(value)


@dataclass(frozen=True)
class CsvRow:
    """One data row, in printed units (dB columns already converted)."""

    snr_db: float
    noise_scale: float
    mse_mmse_db: float | None = None
    stderr_mmse: float | None = None
    mse_lmmse_db: float | None = None
    stderr_lmmse: float | None = None
    lower_db: float | None = None
    upper_db: float | None = None


SWEEP_CSV_HEADER = ",".join(f.name for f in fields(CsvRow))


def _row_from_point(point: SweepPoint) -> CsvRow:
    return CsvRow(
        snr_db=point.snr_db,
        noise_scale=point.noise_scale,
        mse_mmse_db=to_db(point.mse_mmse),
        stderr_mmse=point.stderr_mmse,
        mse_lmmse_db=to_db(point.mse_lmmse),
        stderr_lmmse=point.stderr_lmmse,
        lower_db=to_db(point.lower),
        upper_db=to_db(point.upper),
    )


def _format(value: float | None) -> str:
    return "" if value is None else f"{value:.17g}"


def format_row(row: CsvRow) -> str:
    return ",".join(_format(getattr(row, f.name)) for f in fields(CsvRow))


def render_sweep_csv(config: SweepConfig, points: list[SweepPoint]) -> str:
    """Render the full CSV document (metadata, header, one row per point)."""
    lines = [
        "# gmbayes snr sweep",
        f"# trials={config.trials} seed={config.seed} "
        f"estimators={','.join(config.estimators) or 'none'}",
        "# mse/bound columns: 10*log10(linear); stderr columns: linear",
        "# paired sampling: estimators share the same draws at each point",
        SWEEP_CSV_HEADER,
    ]
    for point in points:
        if point.error is not None:
            lines.append(f"# point at {point.snr_db:.17g} dB failed: {point.error}")
        lines.append(format_row(_row_from_point(point)))
    return "\n".join(lines) + "\n"


def write_sweep_csv(config: SweepConfig, points: list[SweepPoint], path) -> None:
    """Write the CSV with fixed newlines so identical runs give identical bytes.
    A render that raises leaves ``path`` untouched."""
    text = render_sweep_csv(config, points)
    with open(path, "w", newline="\n") as handle:
        handle.write(text)


def _parse_field(text: str, line_no: int) -> float | None:
    if text == "":
        return None
    try:
        return float(text)
    except ValueError as exc:
        raise ValidationError(f"line {line_no}: bad number {text!r}") from exc


def parse_sweep_csv(text: str) -> list[CsvRow]:
    """Parse CSV text back into rows (inverse of :func:`render_sweep_csv`)."""
    rows: list[CsvRow] = []
    header_seen = False
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            if line != SWEEP_CSV_HEADER:
                raise ValidationError(f"line {line_no}: unexpected header {line!r}")
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != len(fields(CsvRow)):
            raise ValidationError(
                f"line {line_no}: expected {len(fields(CsvRow))} fields, got {len(parts)}"
            )
        values = [_parse_field(part, line_no) for part in parts]
        if values[0] is None or values[1] is None:
            raise ValidationError(f"line {line_no}: snr_db and noise_scale are required")
        rows.append(CsvRow(*values))
    if not header_seen:
        raise ValidationError("no header line found")
    return rows


def read_sweep_csv(path) -> list[CsvRow]:
    return parse_sweep_csv(Path(path).read_text())
