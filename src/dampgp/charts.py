"""Minimal static SVG output: line charts and histograms, no dependencies."""

from __future__ import annotations

import math
from xml.sax.saxutils import escape

import numpy as np

WIDTH, HEIGHT = 720, 440
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 170, 40, 55

MIN_BINS = 10
TICKS = 5  # about this many tick values per axis

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _svg_open(title: str) -> list[str]:
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<title>{escape(title)}</title>',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{escape(title)}</text>',
    ]


def _axes(parts: list[str], xlabel: str, ylabel: str, xticks, yticks) -> None:
    """Both axes with their titles; ``xticks`` and ``yticks`` are
    (pixel, label markup) pairs."""
    x0, x1 = MARGIN_L, WIDTH - MARGIN_R
    y0, y1 = HEIGHT - MARGIN_B, MARGIN_T
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>'
    )
    parts.append(
        f'<text x="{(x0 + x1) // 2}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{escape(xlabel)}</text>'
    )
    parts.append(
        f'<text x="18" y="{(y0 + y1) // 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {(y0 + y1) // 2})">{escape(ylabel)}</text>'
    )
    for px, label in xticks:
        parts.append(f'<line x1="{px:.2f}" y1="{y0}" x2="{px:.2f}" y2="{y0 + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{px:.2f}" y="{y0 + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{label}</text>'
        )
    for py, label in yticks:
        parts.append(f'<line x1="{x0 - 5}" y1="{py:.2f}" x2="{x0}" y2="{py:.2f}" stroke="black"/>')
        parts.append(
            f'<text x="{x0 - 8}" y="{py + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{label}</text>'
        )


def _ticks(lo: float, hi: float, integer: bool = False) -> list[tuple[float, str]]:
    """About TICKS round values in [lo, hi], 1, 2 or 5 times a power of ten
    apart (at least 1 apart if ``integer``), each with its label."""
    if not hi > lo:
        return [(lo, f"{lo:g}")]
    raw = max((hi - lo) / TICKS, 1.0 if integer else 0.0)
    e = math.floor(math.log10(raw))
    m = next((m for m in (1, 2, 5) if m * 10.0**e >= raw), 10)
    step = m * 10.0**e
    decimals = max(0, -e)
    return [(i * step, f"{round(i * step, decimals):g}")
            for i in range(math.ceil(lo / step), math.floor(hi / step) + 1)]


def _scale(v, lo, hi, p0, p1):
    if hi == lo:
        return 0.5 * (p0 + p1)
    return p0 + (v - lo) * (p1 - p0) / (hi - lo)


def line_chart(
    path,
    series: dict[str, list[tuple[float, float]]],
    title: str,
    xlabel: str,
    ylabel: str,
) -> None:
    """Write a multi-series line chart on a log10 y axis, with a legend
    naming every series."""
    series = {name: [(x, math.log10(max(y, 1e-300))) for x, y in pts]
              for name, pts in series.items()}
    xs = [p[0] for pts in series.values() for p in pts]
    ys = [p[1] for pts in series.values() for p in pts]
    xlo, xhi = min(xs), max(xs)
    ylo, yhi = min(ys), max(ys)
    if ylo == yhi:
        ylo, yhi = ylo - 1.0, yhi + 1.0

    parts = _svg_open(title)
    px0, px1 = MARGIN_L, WIDTH - MARGIN_R
    py0, py1 = HEIGHT - MARGIN_B, MARGIN_T
    _axes(
        parts, xlabel, ylabel + " (log10)",
        [(_scale(x, xlo, xhi, px0, px1), text) for x, text in _ticks(xlo, xhi)],
        [(_scale(y, ylo, yhi, py0, py1), f'10<tspan dy="-5" font-size="9">{text}</tspan>')
         for y, text in _ticks(ylo, yhi)],
    )
    for idx, (name, pts) in enumerate(sorted(series.items())):
        color = PALETTE[idx % len(PALETTE)]
        coords = []
        for x, y in sorted(pts):
            coords.append(
                f"{_scale(x, xlo, xhi, px0, px1):.2f},"
                f"{_scale(y, ylo, yhi, py0, py1):.2f}"
            )
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="2" '
            f'points="{" ".join(coords)}"/>'
        )
        for c in coords:
            cx, cy = c.split(",")
            parts.append(f'<circle cx="{cx}" cy="{cy}" r="3" fill="{color}"/>')
        ly = MARGIN_T + 18 * idx
        parts.append(
            f'<line x1="{px1 + 12}" y1="{ly}" x2="{px1 + 36}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{px1 + 42}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="12">{escape(name)}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def freedman_diaconis_bins(values: np.ndarray) -> int:
    """Freedman-Diaconis bin count, at least MIN_BINS."""
    v = np.sort(np.asarray(values, dtype=float))
    n = v.size
    if n < 2 or v[0] == v[-1]:
        return MIN_BINS
    iqr = float(np.percentile(v, 75) - np.percentile(v, 25))
    if iqr == 0.0:
        return MIN_BINS
    width = 2.0 * iqr / n ** (1.0 / 3.0)
    return max(MIN_BINS, int(math.ceil((v[-1] - v[0]) / width)))


def histogram(path, values, title: str, xlabel: str, series_name: str = "count") -> None:
    """Binned histogram of ``values`` using Freedman-Diaconis bin widths."""
    values = np.asarray(values, dtype=float)
    nbins = freedman_diaconis_bins(values)
    counts, edges = np.histogram(values, bins=nbins)
    parts = _svg_open(title)
    px0, px1 = MARGIN_L, WIDTH - MARGIN_R
    py0, py1 = HEIGHT - MARGIN_B, MARGIN_T
    cmax = max(int(counts.max()), 1)
    _axes(
        parts, xlabel, series_name,
        [(_scale(x, edges[0], edges[-1], px0, px1), text) for x, text in _ticks(edges[0], edges[-1])],
        [(_scale(c, 0, cmax, py0, py1), text) for c, text in _ticks(0, cmax, integer=True)],
    )
    for i, c in enumerate(counts):
        x_l = _scale(edges[i], edges[0], edges[-1], px0, px1)
        x_r = _scale(edges[i + 1], edges[0], edges[-1], px0, px1)
        top = _scale(float(c), 0, cmax, py0, py1)
        parts.append(
            f'<rect x="{x_l:.2f}" y="{top:.2f}" width="{max(x_r - x_l - 1, 1):.2f}" '
            f'height="{py0 - top:.2f}" fill="{PALETTE[0]}" stroke="white"/>'
        )
    # zero marker helps reading a dissipated-power distribution
    if edges[0] < 0 < edges[-1]:
        xz = _scale(0.0, edges[0], edges[-1], px0, px1)
        parts.append(
            f'<line x1="{xz:.2f}" y1="{py1}" x2="{xz:.2f}" y2="{py0}" '
            f'stroke="#d62728" stroke-dasharray="4 3"/>'
        )
    parts.append(
        f'<text x="{px1 + 12}" y="{MARGIN_T + 4}" font-family="sans-serif" '
        f'font-size="12">{escape(series_name)}</text>'
    )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
