"""Minimal SVG line chart for sweep results (no plotting dependency).

One fixed 800x600 panel with up to four curves against SNR: empirical MMSE,
empirical LMMSE, genie lower bound, LMMSE upper bound, all in dB. A
convenience artifact for eyeballing a sweep; the CSV is the record.
"""

from __future__ import annotations

import math

from .mixture import ValidationError
from .montecarlo import SweepPoint
from .sweepio import to_db

__all__ = ["render_sweep_svg", "write_sweep_svg"]

_WIDTH, _HEIGHT = 800, 600
_LEFT, _RIGHT, _TOP, _BOTTOM = 70, 30, 50, 60

_SERIES = (
    # (label, color, extractor)
    ("upper bound (LMMSE)", "#d62728", lambda p: to_db(p.upper)),
    ("lower bound (genie)", "#1f77b4", lambda p: to_db(p.lower)),
    ("empirical MMSE", "#2ca02c", lambda p: to_db(p.mse_mmse)),
    ("empirical LMMSE", "#9467bd", lambda p: to_db(p.mse_lmmse)),
)


def _nice_step(span: float, target: int = 6) -> float:
    raw = span / max(target, 1)
    power = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0):
        if raw <= mult * power:
            return mult * power
    return 10.0 * power


def _ticks(low: float, high: float) -> list[float]:
    step = _nice_step(high - low)
    first = math.ceil(low / step) * step
    ticks = []
    value = first
    while value <= high + 1e-9 * step:
        ticks.append(0.0 if abs(value) < 1e-12 * step else value)
        value += step
    return ticks


def _collect(points: list[SweepPoint]):
    series = []
    xs, ys = [], []
    for label, color, extract in _SERIES:
        coords = []
        for point in points:
            value = extract(point)
            if value is not None and math.isfinite(value):
                coords.append((point.snr_db, value))
                xs.append(point.snr_db)
                ys.append(value)
        if coords:
            series.append((label, color, coords))
    if not series:
        raise ValidationError("no finite data to plot")
    return series, (min(xs), max(xs)), (min(ys), max(ys))


def render_sweep_svg(points: list[SweepPoint], title: str = "Bayesian MSE vs SNR") -> str:
    """Render sweep points as a standalone SVG document string."""
    series, (x_lo, x_hi), (y_lo, y_hi) = _collect(points)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    pad = 0.05 * (y_hi - y_lo) or 1.0
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(x: float) -> float:
        return _LEFT + (x - x_lo) / (x_hi - x_lo) * (_WIDTH - _LEFT - _RIGHT)

    def sy(y: float) -> float:
        return _HEIGHT - _BOTTOM - (y - y_lo) / (y_hi - y_lo) * (_HEIGHT - _TOP - _BOTTOM)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_WIDTH} {_HEIGHT}" '
        f'width="{_WIDTH}" height="{_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="28" text-anchor="middle" '
        f'font-family="sans-serif" font-size="18">{title}</text>',
    ]
    axis_style = 'stroke="#333" stroke-width="1"'
    grid_style = 'stroke="#ddd" stroke-width="1"'
    text_style = 'font-family="sans-serif" font-size="12" fill="#333"'
    for tick in _ticks(x_lo, x_hi):
        x = sx(tick)
        out.append(f'<line x1="{x:.2f}" y1="{_TOP}" x2="{x:.2f}" '
                   f'y2="{_HEIGHT - _BOTTOM}" {grid_style}/>')
        out.append(f'<text x="{x:.2f}" y="{_HEIGHT - _BOTTOM + 18}" '
                   f'text-anchor="middle" {text_style}>{tick:g}</text>')
    for tick in _ticks(y_lo, y_hi):
        y = sy(tick)
        out.append(f'<line x1="{_LEFT}" y1="{y:.2f}" x2="{_WIDTH - _RIGHT}" '
                   f'y2="{y:.2f}" {grid_style}/>')
        out.append(f'<text x="{_LEFT - 8}" y="{y + 4:.2f}" '
                   f'text-anchor="end" {text_style}>{tick:g}</text>')
    out.append(f'<rect x="{_LEFT}" y="{_TOP}" width="{_WIDTH - _LEFT - _RIGHT}" '
               f'height="{_HEIGHT - _TOP - _BOTTOM}" fill="none" {axis_style}/>')
    out.append(f'<text x="{(_LEFT + _WIDTH - _RIGHT) / 2:.1f}" y="{_HEIGHT - 16}" '
               f'text-anchor="middle" {text_style}>SNR (dB)</text>')
    out.append(f'<text x="20" y="{(_TOP + _HEIGHT - _BOTTOM) / 2:.1f}" text-anchor="middle" '
               f'transform="rotate(-90 20 {(_TOP + _HEIGHT - _BOTTOM) / 2:.1f})" '
               f'{text_style}>MSE (dB)</text>')
    for label, color, coords in series:
        path = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in coords)
        out.append(f'<polyline points="{path}" fill="none" stroke="{color}" '
                   f'stroke-width="1.8"/>')
    for i, (label, color, _) in enumerate(series):
        y = _TOP + 16 + 18 * i
        x = _WIDTH - _RIGHT - 190
        out.append(f'<line x1="{x}" y1="{y - 4}" x2="{x + 26}" y2="{y - 4}" '
                   f'stroke="{color}" stroke-width="2.5"/>')
        out.append(f'<text x="{x + 32}" y="{y}" {text_style}>{label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_sweep_svg(points: list[SweepPoint], path, title: str = "Bayesian MSE vs SNR") -> None:
    with open(path, "w", newline="\n") as handle:
        handle.write(render_sweep_svg(points, title))
