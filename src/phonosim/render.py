"""Minimal SVG rendering of language points and family density contours.

Output is plain deterministic text: points colored by family, contour
polylines in the same color, and a small legend. Geometry uses a single
uniform scale so distances stay honest.
"""

import math
from html import escape

import numpy as np

from .errors import DataError
from .formats import fmt_float, fmt_floats, write_lines

PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728",
    "#9467bd", "#8c564b", "#e377c2", "#7f7f7f",
)
WIDTH = HEIGHT = 800
MARGIN = 60

_UNDRAWABLE = ("cannot draw: the coordinates are too large or too close "
               "together for a finite plot extent and scale")


def family_colors(families):
    """Stable family -> color assignment (sorted names, cycled palette)."""
    return {fam: PALETTE[i % len(PALETTE)]
            for i, fam in enumerate(sorted(set(families)))}


def render_svg(codes, coords, reg, contour_sets, path):
    """Write an SVG overlay of labeled points and contour polylines.

    One point per code at its coords, colored by its registry family. The
    plot extent and scale are checked before anything is written (a
    DataError when they are not finite and positive); the lines are then
    streamed to write_lines, one polyline at a time.
    """
    points = [(code, float(x), float(y), reg.get(code).family)
              for code, (x, y) in zip(codes, coords)]
    lines = [[np.asarray(polyline, dtype=float).reshape(-1, 2)
              for polyline in cs.polylines] for cs in contour_sets]
    xy = np.concatenate([np.array([p[1:3] for p in points]).reshape(-1, 2)]
                        + [line for cs_lines in lines for line in cs_lines])
    if not xy.size:
        xy = np.array([[0.0, 0.0], [1.0, 1.0]])
    # A tie of 0.0 and -0.0 may give either sign; the padding absorbs it.
    (x_lo, y_lo), (x_hi, y_hi) = xy.min(axis=0).tolist(), xy.max(axis=0).tolist()
    span_x = (x_hi - x_lo) or 1.0
    span_y = (y_hi - y_lo) or 1.0
    pad_x = 0.05 * span_x
    pad_y = 0.05 * span_y
    x_lo -= pad_x
    x_hi += pad_x
    y_lo -= pad_y
    y_hi += pad_y

    if not (math.isfinite(x_hi - x_lo) and math.isfinite(y_hi - y_lo)
            and x_lo < x_hi and y_lo < y_hi):
        raise DataError(_UNDRAWABLE)
    scale = min((WIDTH - 2 * MARGIN) / (x_hi - x_lo),
                (HEIGHT - 2 * MARGIN) / (y_hi - y_lo))
    if not (math.isfinite(scale) and scale > 0):
        raise DataError(_UNDRAWABLE)

    # Screen coordinates of a float or a numpy array of floats.
    def sx(x):
        return MARGIN + (x - x_lo) * scale

    def sy(y):
        return HEIGHT - MARGIN - (y - y_lo) * scale  # y grows upward

    colors = family_colors(
        [p[3] for p in points] + [cs.family for cs in contour_sets])

    def svg():
        yield (f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
               f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">')
        yield f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>'
        for cs, cs_lines in zip(contour_sets, lines):
            color = colors[cs.family]
            for line in cs_lines:
                screen = np.empty_like(line)
                screen[:, 0] = sx(line[:, 0])
                screen[:, 1] = sy(line[:, 1])
                vertices = fmt_floats(screen, "%s,%s")
                yield (f'<polyline points="{vertices}" fill="none" stroke="{color}" '
                       f'stroke-width="1.5" opacity="0.8"/>')
        for code, x, y, family in points:
            color = colors[family]
            cx, cy = fmt_float(sx(x)), fmt_float(sy(y))
            yield f'<circle cx="{cx}" cy="{cy}" r="4" fill="{color}"/>'
            yield (f'<text x="{fmt_float(float(cx) + 6)}" y="{cy}" '
                   f'font-size="11" font-family="sans-serif">{escape(code, quote=False)}</text>')
        for i, family in enumerate(sorted(colors)):
            y = MARGIN + 16 * i
            yield (f'<rect x="{MARGIN}" y="{y - 9}" width="10" height="10" '
                   f'fill="{colors[family]}"/>')
            yield (f'<text x="{MARGIN + 14}" y="{y}" font-size="12" '
                   f'font-family="sans-serif">{escape(family, quote=False)}</text>')
        yield "</svg>"

    write_lines(path, svg())
