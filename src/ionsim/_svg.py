"""Minimal static SVG line plots, written directly with no plot library.

The CSV tables are the authoritative output; these plots are a quick
visual check. Axes are linear with 1-2-5 tick spacing, one polyline per
series, and a small legend. All coordinates are emitted with a fixed
format so the same data always produces byte-identical SVG.
"""

from __future__ import annotations

import math

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_W, _H = 720, 460
_ML, _MR, _MT, _MB = 74, 20, 42, 56     # margins around the data window


def _nice_step(span: float) -> float:
    if span <= 0 or not math.isfinite(span):
        return 1.0
    raw = span / 6.0                 # about six ticks per axis
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            return mult * mag
    return 10.0 * mag


def _ticks(lo: float, hi: float) -> list[float]:
    step = _nice_step(hi - lo)
    first = math.ceil(lo / step - 1e-9) * step
    out = []
    t = first
    while t <= hi + 1e-9 * step:
        out.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return out


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _esc(s: str) -> str:
    return (s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace('"', "&quot;"))


def line_plot(x, series, title: str = "", xlabel: str = "", ylabel: str = "") -> str:
    """SVG text for y-vs-x polylines.

    x is an array (or sequence) of floats and series a list of (label,
    values) pairs, each values the same length as x. Non-finite points
    break the polyline rather than distorting the axes, and a run of one
    finite point is drawn as a dot.
    """
    xs = [float(v) for v in x]
    all_y = [float(v) for _, ys in series for v in ys if math.isfinite(float(v))]
    finite_x = [v for v in xs if math.isfinite(v)]
    if not finite_x or not all_y:
        raise ValueError("nothing finite to plot")
    x_lo, x_hi = min(finite_x), max(finite_x)
    y_lo, y_hi = min(all_y), max(all_y)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    iw = _W - _ML - _MR
    ih = _H - _MT - _MB

    def px(v: float) -> float:
        return _ML + (v - x_lo) / (x_hi - x_lo) * iw

    def py(v: float) -> float:
        return _MT + (y_hi - v) / (y_hi - y_lo) * ih

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{iw}" height="{ih}" fill="none" '
        'stroke="#444" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_W / 2:.1f}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{_esc(title)}</text>'
        )
    for t in _ticks(x_lo, x_hi):
        X = px(t)
        parts.append(
            f'<line x1="{X:.2f}" y1="{_MT + ih}" x2="{X:.2f}" '
            f'y2="{_MT + ih + 5}" stroke="#444"/>'
        )
        parts.append(
            f'<text x="{X:.2f}" y="{_MT + ih + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        Y = py(t)
        parts.append(
            f'<line x1="{_ML - 5}" y1="{Y:.2f}" x2="{_ML}" y2="{Y:.2f}" '
            'stroke="#444"/>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{Y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{_ML + iw / 2:.1f}" y="{_H - 12}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{_esc(xlabel)}</text>'
        )
    if ylabel:
        parts.append(
            f'<text x="18" y="{_MT + ih / 2:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13" '
            f'transform="rotate(-90 18 {_MT + ih / 2:.1f})">{_esc(ylabel)}</text>'
        )
    for idx, (label, ys) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        run: list[str] = []
        chunks: list[list[str]] = []
        for xv, yv in zip(xs, ys):
            yv = float(yv)
            if math.isfinite(xv) and math.isfinite(yv):
                run.append(f"{px(xv):.2f},{py(yv):.2f}")
            elif run:
                chunks.append(run)
                run = []
        if run:
            chunks.append(run)
        for chunk in chunks:
            if len(chunk) == 1:
                cx, cy = chunk[0].split(",")
                parts.append(
                    f'<circle cx="{cx}" cy="{cy}" r="2.5" fill="{color}"/>'
                )
            else:
                parts.append(
                    f'<polyline points="{" ".join(chunk)}" fill="none" '
                    f'stroke="{color}" stroke-width="1.6"/>'
                )
        lx = _ML + iw - 12
        ly = _MT + 16 + 16 * idx
        parts.append(
            f'<line x1="{lx - 26}" y1="{ly - 4}" x2="{lx - 8}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx - 30}" y="{ly}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_esc(label)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
