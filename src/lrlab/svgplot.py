"""Tiny deterministic SVG line-plot writer.

No plotting dependency: the byte content of the output depends only on the
data, so repeated runs of the same experiment produce identical files.
"""

from __future__ import annotations

import numpy as np

_WIDTH, _HEIGHT = 640, 480
_ML, _MR, _MT, _MB = 70, 20, 40, 55
_COLOR = "#1f77b4"


def _transform(values: np.ndarray, log: bool) -> np.ndarray:
    vals = np.asarray(values, dtype=float)
    if log and np.any(vals <= 0):
        raise ValueError("log-scale plots require positive data")
    return np.log10(vals) if log else vals


def _span(t: np.ndarray) -> tuple[float, float]:
    """The axis range of the data, widened by 0.5 each way when flat."""
    lo, hi = float(t.min()), float(t.max())
    if hi - lo < 1e-12:
        return lo - 0.5, hi + 0.5
    return lo, hi


def _ticks(lo: float, hi: float, log: bool) -> list[tuple[float, str]]:
    if log:
        decades = range(int(np.floor(lo)), int(np.ceil(hi)) + 1)
        return [(float(k), f"1e{k}") for k in decades if lo <= k <= hi]
    ticks = np.linspace(lo, hi, 5)
    return [(float(v), f"{v:.3g}") for v in ticks]


def _text(x, y, size: int, anchor: str, body: str, extra: str = "") -> str:
    return (
        f'<text x="{x}" y="{y}" font-size="{size}" '
        f'text-anchor="{anchor}"{extra}>{body}</text>'
    )


def line_plot(
    path,
    series: list[tuple[np.ndarray, np.ndarray, str]],
    xlabel: str,
    ylabel: str,
    title: str,
    logx: bool = False,
    logy: bool = False,
) -> None:
    """Write a line+marker plot of series, a list of one (xs, ys, label);
    the label is the legend."""
    ((xs, ys, label),) = series
    tx, ty = _transform(xs, logx), _transform(ys, logy)
    (xlo, xhi), (ylo, yhi) = _span(tx), _span(ty)
    pw = _WIDTH - _ML - _MR
    ph = _HEIGHT - _MT - _MB

    def px(x):
        return _ML + (x - xlo) / (xhi - xlo) * pw

    def py(y):
        return _HEIGHT - _MB - (y - ylo) / (yhi - ylo) * ph

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" '
        'fill="none" stroke="black"/>',
    ]
    for xv, tick in _ticks(xlo, xhi, logx):
        x = px(xv)
        lines.append(
            f'<line x1="{x:.2f}" y1="{_HEIGHT - _MB}" x2="{x:.2f}" '
            f'y2="{_HEIGHT - _MB + 5}" stroke="black"/>'
        )
        lines.append(_text(f"{x:.2f}", _HEIGHT - _MB + 18, 11, "middle", tick))
    for yv, tick in _ticks(ylo, yhi, logy):
        y = py(yv)
        lines.append(
            f'<line x1="{_ML - 5}" y1="{y:.2f}" x2="{_ML}" y2="{y:.2f}" '
            'stroke="black"/>'
        )
        lines.append(_text(_ML - 8, f"{y + 4:.2f}", 11, "end", tick))
    pts = [f"{a:.2f},{b:.2f}" for a, b in zip(px(tx), py(ty))]
    lines.append(
        f'<polyline points="{" ".join(pts)}" fill="none" stroke="{_COLOR}" '
        'stroke-width="1.5"/>'
    )
    for a, b in zip(px(tx), py(ty)):
        lines.append(f'<circle cx="{a:.2f}" cy="{b:.2f}" r="3" fill="{_COLOR}"/>')
    mid = f"{_MT + ph / 2:.2f}"
    lines += [
        _text(_WIDTH - _MR - 5, _MT + 15, 11, "end", label, f' fill="{_COLOR}"'),
        _text(f"{_WIDTH / 2:.2f}", 20, 14, "middle", title),
        _text(f"{_ML + pw / 2:.2f}", _HEIGHT - 12, 12, "middle", xlabel),
        _text(16, mid, 12, "middle", ylabel, f' transform="rotate(-90 16 {mid})"'),
        "</svg>",
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
