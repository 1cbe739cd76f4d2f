"""Minimal SVG rendering of language points and family density contours.

Output is plain deterministic text: points colored by family, contour
polylines in the same color, and a small legend. Geometry uses a single
uniform scale so distances stay honest.
"""

from html import escape

from .formats import fmt_float, write_lines

PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728",
    "#9467bd", "#8c564b", "#e377c2", "#7f7f7f",
)


def family_colors(families):
    """Stable family -> color assignment (sorted names, cycled palette)."""
    return {fam: PALETTE[i % len(PALETTE)]
            for i, fam in enumerate(sorted(set(families)))}


def render_svg(codes, coords, reg, contour_sets, path, width=800, height=800,
               margin=60):
    """Write an SVG overlay of labeled points and contour polylines.

    One point per code at its coords, colored by its registry family.
    """
    points = [(code, float(x), float(y), reg.get(code).family)
              for code, (x, y) in zip(codes, coords)]
    xs = [p[1] for p in points]
    ys = [p[2] for p in points]
    for cs in contour_sets:
        for polyline in cs.polylines:
            xs.extend(float(v) for v in polyline[:, 0])
            ys.extend(float(v) for v in polyline[:, 1])
    if not xs:
        xs = ys = [0.0, 1.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    span_x = (x_hi - x_lo) or 1.0
    span_y = (y_hi - y_lo) or 1.0
    pad_x = 0.05 * span_x
    pad_y = 0.05 * span_y
    x_lo -= pad_x
    x_hi += pad_x
    y_lo -= pad_y
    y_hi += pad_y

    scale = min((width - 2 * margin) / (x_hi - x_lo),
                (height - 2 * margin) / (y_hi - y_lo))

    def sx(x):
        return fmt_float(margin + (x - x_lo) * scale)

    def sy(y):
        return fmt_float(height - margin - (y - y_lo) * scale)  # y grows upward

    colors = family_colors(
        [p[3] for p in points] + [cs.family for cs in contour_sets])

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for cs in contour_sets:
        color = colors.get(cs.family, "#333333")
        for polyline in cs.polylines:
            vertices = " ".join(f"{sx(float(x))},{sy(float(y))}" for x, y in polyline)
            out.append(
                f'<polyline points="{vertices}" fill="none" stroke="{color}" '
                f'stroke-width="1.5" opacity="0.8"/>')
    for code, x, y, family in points:
        color = colors.get(family, "#333333")
        out.append(f'<circle cx="{sx(x)}" cy="{sy(y)}" r="4" fill="{color}"/>')
        out.append(
            f'<text x="{fmt_float(float(sx(x)) + 6)}" y="{sy(y)}" '
            f'font-size="11" font-family="sans-serif">{escape(code, quote=False)}</text>')
    for i, family in enumerate(sorted(colors)):
        y = margin + 16 * i
        out.append(
            f'<rect x="{margin}" y="{y - 9}" width="10" height="10" '
            f'fill="{colors[family]}"/>')
        out.append(
            f'<text x="{margin + 14}" y="{y}" font-size="12" '
            f'font-family="sans-serif">{escape(family, quote=False)}</text>')
    out.append("</svg>")
    write_lines(path, out)
