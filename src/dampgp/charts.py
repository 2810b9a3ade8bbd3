"""Minimal static SVG output: line charts and histograms, no dependencies."""

from __future__ import annotations

import math
from xml.sax.saxutils import escape

import numpy as np

WIDTH, HEIGHT = 720, 440
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 170, 40, 55

MIN_BINS = 10

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


def _axes(parts: list[str], xlabel: str, ylabel: str) -> None:
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
    _axes(parts, xlabel, ylabel + " (log10)")
    px0, px1 = MARGIN_L, WIDTH - MARGIN_R
    py0, py1 = HEIGHT - MARGIN_B, MARGIN_T
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
    _axes(parts, xlabel, series_name)
    px0, px1 = MARGIN_L, WIDTH - MARGIN_R
    py0, py1 = HEIGHT - MARGIN_B, MARGIN_T
    cmax = max(int(counts.max()), 1)
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
