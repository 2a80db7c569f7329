"""Minimal deterministic SVG charts.

Output contains no timestamps or environment-dependent bytes, so a
rerun with the same inputs is byte-identical and plots can be diffed
by primitive element counts.
"""

from __future__ import annotations

import numpy as np

from .textio import block

PALETTE = ("#1b6ca8", "#c0392b", "#27ae60", "#8e44ad", "#d68910", "#16a085")
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 56.0, 16.0, 28.0, 44.0
CHART_W, CHART_H = 560.0, 360.0  # curve chart size
PANEL = 300.0  # side of one square region panel
# One confidence ellipse's row template, given its fill ("none" when
# open) and stroke: cx, cy, rx, ry are left to fill.
_ELLIPSE = ('<ellipse cx="%%.2f" cy="%%.2f" rx="%%.2f" ry="%%.2f" fill="%s" '
            'fill-opacity="0.35" stroke="%s" stroke-width="1.00"/>')


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _nice_ticks(lo: float, hi: float) -> list[float]:
    """About five round-valued ticks covering [lo, hi], lo < hi."""
    raw = (hi - lo) / 5
    mag = 10.0 ** np.floor(np.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = np.ceil(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 1e-9 * step:
        ticks.append(float(t))
        t += step
    return ticks


class _Canvas:
    def __init__(self, width: float, height: float) -> None:
        self.width = width
        self.height = height
        self.parts: list[str] = []

    def points(self, tag: str, style: str, x: np.ndarray, y: np.ndarray) -> None:
        """A polyline or polygon through the points (x, y)."""
        coords = block("%.2f,%.2f " * x.size, [x.tolist(), y.tolist()])[:-1]
        self.parts.append(f'<{tag} {style} points="{coords}"/>')

    def line(self, x1: float, y1: float, x2: float, y2: float) -> None:
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
            f'y2="{_fmt(y2)}" stroke="#333333" stroke-width="1.00"/>'
        )

    def text(self, x: float, y: float, s: str, size: float = 11.0,
             anchor: str = "middle", color: str = "#222222") -> None:
        self.parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{_fmt(size)}" '
            f'font-family="sans-serif" text-anchor="{anchor}" '
            f'fill="{color}">{s}</text>'
        )

    def to_string(self) -> str:
        # One join: a joined body copied into the document would hold
        # a large chart's text twice at once.
        head = (
            f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{_fmt(self.width)}" height="{_fmt(self.height)}" '
            f'viewBox="0 0 {_fmt(self.width)} {_fmt(self.height)}">\n'
            f'<rect width="100%" height="100%" fill="#ffffff"/>'
        )
        return "\n".join([head, *self.parts, "</svg>\n"])


class _Axes:
    """Linear data-to-pixel mapping inside one plot box."""

    def __init__(self, canvas: _Canvas, box: tuple[float, float, float, float],
                 xlim: tuple[float, float], ylim: tuple[float, float]) -> None:
        self.canvas = canvas
        self.x0, self.y0, self.w, self.h = box
        self.xlim = xlim
        self.ylim = ylim

    def px(self, x: float | np.ndarray) -> float | np.ndarray:
        lo, hi = self.xlim
        return self.x0 + (x - lo) / (hi - lo) * self.w

    def py(self, y: float | np.ndarray) -> float | np.ndarray:
        lo, hi = self.ylim
        return self.y0 + self.h - (y - lo) / (hi - lo) * self.h

    def frame(self, xlabel: str, ylabel: str, xticks: list[float]) -> None:
        c = self.canvas
        c.line(self.x0, self.y0 + self.h, self.x0 + self.w, self.y0 + self.h)
        c.line(self.x0, self.y0, self.x0, self.y0 + self.h)
        for t in xticks:
            x = self.px(t)
            c.line(x, self.y0 + self.h, x, self.y0 + self.h + 4.0)
            c.text(x, self.y0 + self.h + 16.0, f"{t:g}", size=10.0)
        for t in _nice_ticks(*self.ylim):
            y = self.py(t)
            c.line(self.x0 - 4.0, y, self.x0, y)
            c.text(self.x0 - 7.0, y + 3.5, f"{t:g}", size=10.0, anchor="end")
        c.text(self.x0 + self.w / 2.0, self.y0 + self.h + 34.0, xlabel)
        c.text(self.x0 - 40.0, self.y0 - 8.0, ylabel, anchor="start")


def curve_chart(
    thetas: np.ndarray,
    series: np.ndarray,
    title: str,
    bands: np.ndarray | None = None,
) -> str:
    """Response-versus-orientation chart, one polyline per projector.

    ``series`` is (n_theta, n_series), labelled P1..Pn; ``bands`` gives
    optional CI half-widths of the same shape, drawn as shaded strips.
    """
    canvas = _Canvas(CHART_W, CHART_H)
    top = np.max(series + (bands if bands is not None else 0.0))
    ylim = (0.0, max(1e-12, float(top)) * 1.05)
    axes = _Axes(
        canvas,
        (MARGIN_L, MARGIN_T, CHART_W - MARGIN_L - MARGIN_R,
         CHART_H - MARGIN_T - MARGIN_B),
        (float(thetas[0]), float(thetas[-1])) if len(thetas) > 1 else (0.0, 180.0),
        ylim,
    )
    axes.frame("orientation [deg]", "response",
               xticks=[0.0, 45.0, 90.0, 135.0, 180.0])
    canvas.text(CHART_W / 2.0, 16.0, title, size=13.0)
    x = axes.px(np.asarray(thetas, dtype=float))
    for k in range(series.shape[1]):
        color = PALETTE[k % len(PALETTE)]
        if bands is not None:
            # The upper edge left to right, then the lower one back.
            edges = np.concatenate([series[:, k] + bands[:, k],
                                    (series[:, k] - bands[:, k])[::-1]])
            canvas.points("polygon", f'fill="{color}" fill-opacity="0.25" stroke="none"',
                          np.concatenate([x, x[::-1]]), axes.py(edges))
        canvas.points("polyline", f'fill="none" stroke="{color}" stroke-width="1.50"',
                      x, axes.py(series[:, k]))
        canvas.text(MARGIN_L + 8.0 + 90.0 * k, MARGIN_T - 6.0, f"P{k + 1}",
                    size=10.0, anchor="start", color=color)
    return canvas.to_string()


def region_panels(outcomes: list) -> str:
    """Response-space scatter with confidence ellipses.

    ``outcomes`` (at least one) are :class:`discern.FamilyOutcome`
    records: each draws its ``regions`` and marks its ``kept`` rows; one
    panel is drawn per coordinate pair i < j, with axes P1..Pk.
    """
    n_axes = outcomes[0].regions.center.shape[1]
    axis_pairs = [(i, j) for i in range(n_axes) for j in range(i + 1, n_axes)]
    width = MARGIN_L + len(axis_pairs) * (PANEL + 24.0)
    canvas = _Canvas(width, PANEL + MARGIN_T + MARGIN_B)
    canvas.text(width / 2.0, 16.0, "response regions", size=13.0)
    # Each family's ellipse rows, fills and stroke baked in, the same in
    # every panel; an empty family draws no line.
    rows = []
    for f, o in enumerate(outcomes):
        color = PALETTE[f % len(PALETTE)]
        row = [_ELLIPSE % ("none", color)] * o.regions.center.shape[0]
        for i in o.kept:
            row[i] = _ELLIPSE % (color, color)
        rows.append("\n".join(row))
    for p, (ix, iy) in enumerate(axis_pairs):
        box_x = MARGIN_L + p * (PANEL + 24.0)
        axes = _Axes(canvas, (box_x, MARGIN_T, PANEL, PANEL),
                     (-0.05, 1.05), (-0.05, 1.05))
        axes.frame(f"P{ix + 1}", f"P{iy + 1}", xticks=[0.0, 0.5, 1.0])
        for f, o in enumerate(outcomes):
            color = PALETTE[f % len(PALETTE)]
            centers = o.regions.center
            rx, ry = (np.maximum(o.regions.semi_axes[:, k] / 1.1 * PANEL, 1.0)
                      for k in (ix, iy))
            if rows[f]:
                canvas.parts.append(block(rows[f], [
                    axes.px(centers[:, ix]).tolist(), axes.py(centers[:, iy]).tolist(),
                    rx.tolist(), ry.tolist()]))
            canvas.text(box_x + 8.0, MARGIN_T - 6.0 + 12.0 * f,
                        o.family, size=10.0, anchor="start", color=color)
    return canvas.to_string()
