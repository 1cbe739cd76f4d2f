"""Shared float formatting for exported artifacts.

Every CSV/JSON/SVG writer renders floats through fmt_float: 12 significant
digits, shortest form. Rounding hides most last-bit differences but not
all of them: a value next to a rounding boundary still changes its 12th
digit, and a last-bit change in a density grid value moves the contour
vertices interpolated from it (evaluating the KDE grid as a matrix
product changed two contours.json coordinates at the 12th digit).
Artifacts are byte-identical when the floating-point operations and their
order are, so a different BLAS/LAPACK build can still change them.
"""

FLOAT_FMT = ".12g"


def fmt_float(x):
    s = format(float(x), FLOAT_FMT)
    return "0" if s == "-0" else s


def round_float(x):
    """The float as exported, for embedding in JSON payloads."""
    return float(fmt_float(x))
