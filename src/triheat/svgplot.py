"""Standalone SVG 1.1 emission for sweep results.

One-axis sweeps (or sweeps with a small second axis) become a line chart
with one polyline per second-axis value; dense two-axis grids become a
heat-map of colored cells. No plotting library: the files are small,
self-contained, and easy to assert on in tests.
"""

from __future__ import annotations

import math
from pathlib import Path

from .config import SweepSpec
from .sweep import SweepTable

WIDTH, HEIGHT = 720, 540
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 90, 30, 40, 70
LINE_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f")
HEATMAP_CUTOFF = 8  # axis2 values above this switch the style to heatmap
NAN_FILL = "#cccccc"


def _span(values: list[float]) -> tuple[float, float]:
    finite = [v for v in values if math.isfinite(v)]
    if not finite:
        return -1.0, 1.0
    lo, hi = min(finite), max(finite)
    if hi == lo:
        pad = max(abs(lo), 1.0) * 1e-3
        return lo - pad, hi + pad
    return lo, hi


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _ramp(t: float) -> str:
    """Blue -> white -> red diverging ramp over t in [0, 1]."""
    anchors = ((33, 102, 172), (247, 247, 247), (178, 24, 43))
    t = min(max(t, 0.0), 1.0)
    if t <= 0.5:
        a, b, u = anchors[0], anchors[1], t * 2
    else:
        a, b, u = anchors[1], anchors[2], (t - 0.5) * 2
    rgb = tuple(round(a[i] + (b[i] - a[i]) * u) for i in range(3))
    return f"#{rgb[0]:02x}{rgb[1]:02x}{rgb[2]:02x}"


def _header(title: str) -> list[str]:
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" font-family="sans-serif" '
        f'font-size="15">{title}</text>',
    ]


def _frame_and_labels(x_label: str, y_label: str, xs: tuple[float, float], ys: tuple[float, float]) -> list[str]:
    parts = [
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{WIDTH - MARGIN_L - MARGIN_R}" '
        f'height="{HEIGHT - MARGIN_T - MARGIN_B}" fill="none" stroke="black"/>',
        f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) / 2:.1f}" y="{HEIGHT - 18}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{x_label}</text>',
        f'<text x="20" y="{(MARGIN_T + HEIGHT - MARGIN_B) / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 20 {(MARGIN_T + HEIGHT - MARGIN_B) / 2:.1f})">{y_label}</text>',
    ]
    for t in _ticks(*xs):
        px = _to_px(t, xs, MARGIN_L, WIDTH - MARGIN_R)
        parts.append(f'<line x1="{px:.1f}" y1="{HEIGHT - MARGIN_B}" x2="{px:.1f}" y2="{HEIGHT - MARGIN_B + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{px:.1f}" y="{HEIGHT - MARGIN_B + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{t:.4g}</text>'
        )
    for t in _ticks(*ys):
        py = _to_px(t, ys, HEIGHT - MARGIN_B, MARGIN_T)
        parts.append(f'<line x1="{MARGIN_L - 5}" y1="{py:.1f}" x2="{MARGIN_L}" y2="{py:.1f}" stroke="black"/>')
        parts.append(
            f'<text x="{MARGIN_L - 9}" y="{py + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{t:.4g}</text>'
        )
    return parts


def _to_px(value: float, span: tuple[float, float], px_lo: float, px_hi: float) -> float:
    lo, hi = span
    frac = (value - lo) / (hi - lo)
    return px_lo + frac * (px_hi - px_lo)


def plot_style(spec: SweepSpec) -> str:
    if spec.axis2 is not None and spec.axis2.count > HEATMAP_CUTOFF:
        return "heatmap"
    return "lines"


def emit_plot(table: SweepTable, spec: SweepSpec, path: str | Path) -> None:
    """Write the sweep as a standalone SVG file."""
    if not table.reasons:
        raise ValueError("emit_plot: no rows to draw")
    style = plot_style(spec)
    parts = _plot_heatmap(table, spec) if style == "heatmap" else _plot_lines(table, spec)
    parts.append("</svg>")
    try:
        Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write SVG to {path}: {exc}") from exc


def _plot_lines(table: SweepTable, spec: SweepSpec) -> list[str]:
    x_col = spec.plot_x or spec.axis1.field_name
    y_col = spec.plot_y
    n1 = spec.axis1.count
    rows = list(zip(table.columns[x_col].tolist(), table.columns[y_col].tolist(), table.reasons))
    xs = _span([xv for xv, _, _ in rows])
    ys = _span([yv for _, yv, reason in rows if not reason])
    parts = _header(f"{y_col} vs {x_col}")
    parts += _frame_and_labels(x_col, y_col, xs, ys)
    for k, start in enumerate(range(0, len(rows), n1)):
        color = LINE_COLORS[k % len(LINE_COLORS)]
        pts = []
        for xv, yv, reason in rows[start: start + n1]:
            if reason or not (math.isfinite(xv) and math.isfinite(yv)):
                continue
            px = _to_px(xv, xs, MARGIN_L, WIDTH - MARGIN_R)
            py = _to_px(yv, ys, HEIGHT - MARGIN_B, MARGIN_T)
            pts.append(f"{px:.2f},{py:.2f}")
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{" ".join(pts)}"/>')
        if spec.axis2 is not None:
            label = f"{spec.axis2.field_name}={float(table.columns[spec.axis2.field_name][start]):.4g}"
            parts.append(
                f'<text x="{WIDTH - MARGIN_R - 8}" y="{MARGIN_T + 16 + 15 * k}" text-anchor="end" '
                f'font-family="sans-serif" font-size="11" fill="{color}">{label}</text>'
            )
    return parts


def _plot_heatmap(table: SweepTable, spec: SweepSpec) -> list[str]:
    y_col = spec.plot_y
    n1, n2 = spec.axis1.count, spec.axis2.count
    values = [math.nan if reason else v for v, reason in zip(table.columns[y_col].tolist(), table.reasons)]
    lo, hi = _span(values)
    parts = _header(f"{y_col} over {spec.axis1.field_name} x {spec.axis2.field_name} "
                    f"(range {lo:.4g} to {hi:.4g})")
    parts += _frame_and_labels(
        spec.axis1.field_name,
        spec.axis2.field_name,
        (spec.axis1.start, spec.axis1.stop),
        (spec.axis2.start, spec.axis2.stop),
    )
    cell_w = (WIDTH - MARGIN_L - MARGIN_R) / n1
    cell_h = (HEIGHT - MARGIN_T - MARGIN_B) / n2
    for i2 in range(n2):
        for i1 in range(n1):
            v = values[i2 * n1 + i1]
            fill = NAN_FILL if not math.isfinite(v) else _ramp((v - lo) / (hi - lo))
            # row 0 of the grid sits at the bottom (low axis2 value)
            x = MARGIN_L + i1 * cell_w
            y = HEIGHT - MARGIN_B - (i2 + 1) * cell_h
            parts.append(
                f'<rect class="cell" x="{x:.2f}" y="{y:.2f}" width="{cell_w:.2f}" '
                f'height="{cell_h:.2f}" fill="{fill}"/>'
            )
    return parts
